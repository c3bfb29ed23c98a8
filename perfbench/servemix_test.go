package main

import "testing"

// TestServeRoundPaths sends a one-round plan to a live server twice (two
// epochs) and checks that every query succeeds, that each epoch's tree
// took the path each query's class names, and that the served rows match
// cold runs. Run it with -race: the two clients share the checker, the
// tracer-free pass state and the server.
func TestServeRoundPaths(t *testing.T) {
	w := newServeWL(servePlan{seed: 5, benches: []string{"lib.", "pr"}, clients: 2, rounds: 1, warmPerKey: 3})
	defer w.close()
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	chk := newChecker(nil)
	for op := 1; op <= 2; op++ {
		if err := w.prepare(chk); err != nil {
			t.Fatal(err)
		}
		ps, err := w.pass(nil, op, chk)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ps.latencies["warm"]); n != 12 {
			t.Fatalf("pass %d: %d warm latencies, want 12", op, n)
		}
	}
	if err := w.finish(chk); err != nil {
		t.Fatal(err)
	}
	// Per epoch and client: cold, three hits, extend, three hits; then
	// the four keys of round 0 re-run cold.
	attempted, failed, problems := chk.counts()
	if attempted != 2*2*8+4 || failed != 0 {
		t.Fatalf("attempted=%d failed=%d %q, want 36 and 0", attempted, failed, problems)
	}
	if got := w.obs["serve.checkpoint.misses"]; got != 4 {
		t.Fatalf("%d cold builds over two epochs, want 4", got)
	}
}
