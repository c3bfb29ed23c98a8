package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// defaultSeed is the seed the committed references were generated at.
const defaultSeed = 1

// reference is one committed file: every simulated output of a workload
// at the default seed, keyed by operation (harness name, or a serve plan
// key), in the compact JSON encoding the harness Result marshals to.
type reference struct {
	Workload string                     `json:"workload"`
	Seed     int64                      `json:"seed"`
	Outputs  map[string]json.RawMessage `json:"outputs"`
}

func refPath(dir, workload string) string {
	return filepath.Join(dir, fmt.Sprintf("%s.seed%d.json", workload, defaultSeed))
}

// loadReference reads a workload's committed reference and compacts
// every output so it compares byte for byte with json.Marshal output.
func loadReference(dir, workload string) (map[string][]byte, error) {
	raw, err := os.ReadFile(refPath(dir, workload))
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("reading reference %s: %w", refPath(dir, workload), err)
	}
	out := make(map[string][]byte, len(ref.Outputs))
	for k, v := range ref.Outputs {
		var b bytes.Buffer
		if err := json.Compact(&b, v); err != nil {
			return nil, fmt.Errorf("reference %s output %q: %w", workload, k, err)
		}
		out[k] = b.Bytes()
	}
	return out, nil
}

// writeReference commits outputs as the workload's reference.
func writeReference(dir, workload string, outputs map[string][]byte) error {
	ref := reference{Workload: workload, Seed: defaultSeed, Outputs: map[string]json.RawMessage{}}
	for k, v := range outputs {
		ref.Outputs[k] = v
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(refPath(dir, workload), append(b, '\n'), 0o644)
}

// checker counts operations and failures. Each output is compared with
// the committed reference when the run is at the default seed, and
// otherwise with the first output seen under the same key, so every
// repeat of an operation (and the traced run against the untraced one)
// must reproduce it byte for byte. Safe for concurrent use.
type checker struct {
	ref map[string][]byte // nil away from the default seed

	mu        sync.Mutex
	seen      map[string][]byte
	attempted int
	failed    int
	problems  []string
}

func newChecker(ref map[string][]byte) *checker {
	return &checker{ref: ref, seen: map[string][]byte{}}
}

// record accounts one operation: a call error, a missing reference or a
// differing output counts it as failed. It reports whether it passed.
func (c *checker) record(key string, out []byte, err error) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	ok := err == nil
	switch {
	case err != nil:
		c.problems = append(c.problems, fmt.Sprintf("%s: %v", key, err))
	case c.ref != nil:
		want, have := c.ref[key]
		ok = have && bytes.Equal(want, out)
		if !ok {
			c.problems = append(c.problems, fmt.Sprintf("%s: output differs from the committed reference", key))
		}
	default:
		if prev, have := c.seen[key]; have && !bytes.Equal(prev, out) {
			ok = false
			c.problems = append(c.problems, fmt.Sprintf("%s: output differs from an earlier run of the same key", key))
		}
	}
	if _, have := c.seen[key]; !have && err == nil {
		c.seen[key] = out
	}
	if !ok {
		c.failed++
	}
	return ok
}

// fail accounts a failed operation that produced no output to compare
// (a non-200 status, a plan check that did not hold).
func (c *checker) fail(what string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	c.failed++
	c.problems = append(c.problems, what)
}

// outputs returns every first output, for writing a reference.
func (c *checker) outputs() map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte, len(c.seen))
	for k, v := range c.seen {
		out[k] = v
	}
	return out
}

func (c *checker) counts() (attempted, failed int, problems []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := append([]string(nil), c.problems...)
	sort.Strings(p)
	return c.attempted, c.failed, p
}
