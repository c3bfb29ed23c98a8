package workload_test

import (
	"fmt"

	"m5/internal/workload"
)

// Example_catalog builds a benchmark from the Table 3 catalog and drains a
// few accesses — the producer side of every experiment in this repository.
func Example_catalog() {
	g := workload.MustNew("redis", workload.ScaleTiny, 42)
	defer g.Close()

	fmt.Printf("benchmark %s, footprint %d KB\n", g.Name(), g.Footprint()/1024)
	buf := make([]workload.Access, 1000)
	ops := 0
	for _, a := range buf[:g.NextBatch(buf)] {
		if a.OpEnd {
			ops++
		}
	}
	fmt.Println("client operations in the first 1000 accesses:", ops > 50)
	// Output:
	// benchmark redis, footprint 4384 KB
	// client operations in the first 1000 accesses: true
}

// ExampleNewYCSB runs the read-only YCSB-C mix: no access is ever a write.
func ExampleNewYCSB() {
	g := workload.NewYCSB(workload.YCSBConfig{Kind: workload.YCSBC, Keys: 1 << 10, Seed: 1})
	defer g.Close()
	buf := make([]workload.Access, 5000)
	writes := 0
	for _, a := range buf[:g.NextBatch(buf)] {
		if a.Write {
			writes++
		}
	}
	fmt.Println("writes under ycsb-c:", writes)
	// Output:
	// writes under ycsb-c: 0
}
