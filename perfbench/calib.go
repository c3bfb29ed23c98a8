package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The calibration kernel is a fixed piece of work timed between passes,
// so a run can state its CPU times at a reference host speed: on a
// shared virtual machine the same work takes more or less CPU time as
// neighbours load the host, and a run scales its times by how long the
// kernel took beside them. The kernel exercises what the simulator's hot
// loops lean on: dependent loads over a buffer larger than a core's
// private caches (page-table walks, cache tag lookups that miss) and a
// branchy set-associative lookup with LRU ages (the cache model). It
// lives in this package, so no change to the code under test changes it.

const (
	calChaseWords = 1 << 21 // 8 MiB of uint32 pointer-chase ring
	calChaseSteps = 400_000
	calSets       = 4096 // 4096 sets x 8 ways of uint32 tags and ages
	calWays       = 8
	calLookups    = 600_000
	calWords      = calChaseWords + 2*calSets*calWays

	// calRefSeconds is a median of the kernel's thread CPU time measured
	// on the reference host (a 2-vCPU Xeon virtual machine), the speed
	// every scaled time is stated at; it only sets the scale.
	calRefSeconds = 0.070
	// calEvery is the least time between two calibrations among passes.
	calEvery = time.Second
)

// calibrator holds the kernel's buffers and its timings. The buffers are
// mapped outside the Go heap, so they neither move the collector's
// pacing nor get scanned.
type calibrator struct {
	mem        []byte
	ring       []uint32
	tags, ages []uint32
	seconds    []float64
	last       time.Time
	sink       uint64
}

func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 4*calWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	all := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calWords)
	c := &calibrator{
		mem:  mem,
		ring: all[:calChaseWords],
		tags: all[calChaseWords : calChaseWords+calSets*calWays],
		ages: all[calChaseWords+calSets*calWays:],
	}
	// One random cycle through every slot (Sattolo's algorithm), so each
	// load depends on the previous one and no prefetcher can follow.
	for i := range c.ring {
		c.ring[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c.ring) - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c.ring[i], c.ring[j] = c.ring[j], c.ring[i]
	}
	return c, nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// due reports whether a second has passed since the last calibration.
func (c *calibrator) due() bool { return time.Since(c.last) >= calEvery }

// sample runs the kernel once and records the CPU time of the thread
// that ran it, so goroutines running elsewhere in the process do not
// count.
func (c *calibrator) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range c.tags {
		c.tags[i], c.ages[i] = 0, 0
	}
	cpu0 := threadCPUSeconds()
	p := uint32(0)
	for i := 0; i < calChaseSteps; i++ {
		p = c.ring[p]
	}
	// Addresses: three in four from a 64K-line hot set, the rest from a
	// wide range, like a skewed benchmark stream.
	x := uint64(0x2545f4914f6cdd1d)
	var hits uint64
	for i := 0; i < calLookups; i++ {
		x = xorshift(x)
		line := uint32(x >> 40)
		if x&3 != 0 {
			line &= 1<<16 - 1
		}
		set := int(line%calSets) * calWays
		tag := line/calSets + 1
		victim, oldest, hit := 0, uint32(0), false
		for w := 0; w < calWays; w++ {
			a := c.ages[set+w] + 1
			c.ages[set+w] = a
			if c.tags[set+w] == tag {
				c.ages[set+w] = 0
				hit = true
			} else if a > oldest {
				victim, oldest = w, a
			}
		}
		if hit {
			hits++
		} else {
			c.tags[set+victim], c.ages[set+victim] = tag, 0
		}
	}
	c.seconds = append(c.seconds, threadCPUSeconds()-cpu0)
	c.sink += uint64(p) + hits
	c.last = time.Now()
}

// toRef is the factor that turns a CPU time measured in this run into
// the time at the reference host speed: the reference kernel time over
// the run's median kernel time.
func (c *calibrator) toRef() float64 { return calRefSeconds / median(c.seconds) }

func (c *calibrator) close() { syscall.Munmap(c.mem) }

// threadCPUSeconds is the calling thread's user plus system CPU time.
func threadCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
