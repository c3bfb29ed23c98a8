package sketch_test

import (
	"fmt"

	"m5/internal/sketch"
)

// ExampleCountMin demonstrates the CM-Sketch guarantee the trackers rely
// on: estimates never undercount, and collisions only inflate.
func ExampleCountMin() {
	cm := sketch.NewCountMin(1024)
	for i := 0; i < 500; i++ {
		cm.AddN(0xABC, 1)
	}
	cm.AddN(0xDEF, 1)
	fmt.Println("hot key:", cm.Estimate(0xABC))
	fmt.Println("cold key:", cm.Estimate(0xDEF))
	fmt.Println("unseen key:", cm.Estimate(0x123))
	// Output:
	// hot key: 500
	// cold key: 1
	// unseen key: 0
}

// ExampleSpaceSaving demonstrates the eviction rule: a newcomer inherits
// the evicted minimum's count plus one, recording the inherited amount as
// error.
func ExampleSpaceSaving() {
	ss := sketch.NewSpaceSaving(2)
	ss.AddN(1, 1)
	ss.AddN(1, 1)
	ss.AddN(2, 1)
	ss.AddN(3, 1) // evicts key 2 (count 1); key 3 inherits 1+1=2 with error 1
	for _, kc := range ss.Top(2) {
		e, _ := ss.Error(kc.Key)
		fmt.Printf("key %d: count %d (error %d)\n", kc.Key, kc.Count, e)
	}
	// Output:
	// key 1: count 2 (error 0)
	// key 3: count 2 (error 1)
}
