// Package fanout runs a striped task on a few goroutines without allocating
// per call. The training step fans out three or four times per batch
// (samples, the two Adam passes, table rebuilds); a `go func(w int) {…}(w)`
// loop pays one closure per goroutine and an escaped WaitGroup every time,
// which is garbage in proportion to steps × workers. A Group keeps one start
// function per stripe for its lifetime, so a Run costs only the task closure
// the caller hands it.
package fanout

import "sync"

// Group runs one striped task at a time. The zero value is ready to use.
// Goroutines live only for the duration of a Run, so a Group needs no
// Close; Run must not be called concurrently on one Group.
type Group struct {
	wg     sync.WaitGroup
	task   func(w int)
	starts []func() // starts[w] runs stripe w of the task in flight
}

// Run calls task(w) for every stripe w in [0, n) and returns when all of
// them have. A single stripe runs on the calling goroutine; more run on one
// goroutine each while the caller waits. (The caller does not take a stripe
// itself: a lone helper would sit in the caller's run-next slot, which an
// idle processor steals only after a sleep, while the second of two fresh
// goroutines pushes the first onto the stealable queue at once.) n < 1 runs
// nothing.
func (g *Group) Run(n int, task func(w int)) {
	if n <= 1 {
		if n == 1 {
			task(0)
		}
		return
	}
	g.task = task
	for len(g.starts) < n {
		w := len(g.starts)
		g.starts = append(g.starts, func() {
			defer g.wg.Done()
			g.task(w)
		})
	}
	g.wg.Add(n)
	for _, start := range g.starts[:n] {
		go start()
	}
	g.wg.Wait()
	g.task = nil
}
