package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sendFunc issues request k from sender w and returns once the answer is
// complete.
type sendFunc func(w, k int)

// closedLoop runs `senders` clients until stop says so: each sends its
// next request as soon as the previous answer is complete, so a slow
// system receives less load. Due and sent times coincide. stop sees the
// number of the request about to be sent and the time since the start.
func closedLoop(senders int, stop func(k int, elapsed time.Duration) bool, send sendFunc) []sample {
	return runSenders(senders, func(start time.Time, next *atomic.Int64, w int) []sample {
		var out []sample
		for {
			k := int(next.Add(1)) - 1
			sent := time.Since(start)
			if stop(k, sent) {
				return out
			}
			send(w, k)
			out = append(out, sample{due: sent, sent: sent, done: time.Since(start)})
		}
	})
}

// forDuration stops a closed loop once d has passed.
func forDuration(d time.Duration) func(int, time.Duration) bool {
	return func(_ int, elapsed time.Duration) bool { return elapsed >= d }
}

// forCount stops a closed loop once n requests have been sent.
func forCount(n int) func(int, time.Duration) bool {
	return func(k int, _ time.Duration) bool { return k >= n }
}

// openLoop sends request k at start + k/rate regardless of how the system
// keeps up, for every k due before dur. A sender that is free before the
// next request is due sleeps until then (time.Sleep, never a spin: on two
// cores a spinning generator starves the servers it measures); one that
// is behind sends at once. Latency is counted from the due time, so a
// stall is charged to every request that had to wait behind it. Every
// due request is sent, however late: an overloaded system must not look
// better by being measured less.
func openLoop(rate float64, dur time.Duration, senders int, send sendFunc) []sample {
	interval := float64(time.Second) / rate
	return runSenders(senders, func(start time.Time, next *atomic.Int64, w int) []sample {
		var out []sample
		for {
			k := int(next.Add(1)) - 1
			due := time.Duration(float64(k) * interval)
			if due >= dur {
				return out
			}
			if now := time.Since(start); due > now {
				time.Sleep(due - now)
			}
			sent := time.Since(start)
			send(w, k)
			out = append(out, sample{due: due, sent: sent, done: time.Since(start)})
		}
	})
}

// runSenders starts the senders on a shared request counter, waits for
// all of them and concatenates their samples.
func runSenders(senders int, loop func(start time.Time, next *atomic.Int64, w int) []sample) []sample {
	var next atomic.Int64
	per := make([][]sample, senders)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			per[w] = loop(start, &next, w)
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}
