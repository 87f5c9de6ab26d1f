package main

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The calibration task is a fixed piece of CPU work, written here and
// not in the program under test, so that no change to the program
// changes it. It is timed after every measured run; a run's time divided
// by the calibration's time of the same invocation is the run's time in
// units of the host's speed at that moment. Shared hosts change speed by
// tens of percent from one minute to the next, and the ratio cancels
// most of that drift.
//
// The work mirrors what the CLI spends its time on: allocating strings,
// sorting them, edit distance between sort neighbours and a hash map
// keyed by prefixes. It runs on one goroutine per CPU the runner may
// use, as the CLI does.

const (
	calRounds  = 10   // rounds per goroutine
	calStrings = 4000 // strings sorted and compared per round
	calWindow  = 3    // sort neighbours each string is compared with
)

// calSample is one calibration: its wall time and the CPU time the
// runner used meanwhile, in seconds.
type calSample struct {
	wall, cpu float64
}

// calSum is the checksum every calibration must produce: the work is a
// pure function of its constants. 0 until the first calibration.
var calSum uint64

// calibrate runs the calibration task once and times it.
func calibrate() (calSample, error) {
	procs := runtime.GOMAXPROCS(0)
	sums := make([]uint64, procs)
	var ru0, ru1 syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return calSample{}, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for p := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < calRounds; r++ {
				sums[p] += calRound(uint64(r*procs+p) + 1)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return calSample{}, err
	}
	var sum uint64
	for _, s := range sums {
		sum += s
	}
	if calSum == 0 {
		calSum = sum
	} else if sum != calSum {
		return calSample{}, errors.New("calibration task computed a different checksum")
	}
	cpu := float64(ru1.Utime.Nano()+ru1.Stime.Nano()-ru0.Utime.Nano()-ru0.Stime.Nano()) / 1e9
	return calSample{wall: wall, cpu: cpu}, nil
}

// calRound is one round of the calibration work, seeded by seed.
func calRound(seed uint64) uint64 {
	x := seed * 0x9e3779b97f4a7c15
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	strs := make([]string, calStrings)
	for i := range strs {
		b := make([]byte, 8+next()%32)
		for k := range b {
			b[k] = 'a' + byte(next()%12)
		}
		strs[i] = string(b)
	}
	sort.Strings(strs)
	prefixes := map[string]int{}
	var sum uint64
	for i, s := range strs {
		for j := i + 1; j < len(strs) && j <= i+calWindow; j++ {
			sum += uint64(levenshtein(s, strs[j]))
		}
		prefixes[s[:4]]++
	}
	return sum*31 + uint64(len(prefixes))
}

// levenshtein is the two-row edit distance of a and b.
func levenshtein(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			c := prev[j-1]
			if a[i-1] != b[j-1] {
				c++
			}
			c = min(c, prev[j]+1, cur[j-1]+1)
			cur[j] = c
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
