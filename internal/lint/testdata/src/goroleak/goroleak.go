// Package goroleakfix seeds spawn sites for the goroleak analyzer tests,
// mirroring sched's worker pool (literal) and jobs' dispatcher (method on the
// owner). sim is not mirrored: its PEs are pull coroutines and it has no spawn
// site; pe.loop below is just a method spawned with `go`.
package goroleakfix

import "sync"

// literal is the sched worker-pool shape: the body is at the spawn site.
func literal(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

type pe struct{ evCh chan int }

func (p *pe) loop() { p.evCh <- 1 }

func worker(ch chan int) { ch <- 1 }

// static spawns a method and a package function: one jump to the body.
func static() {
	p := &pe{evCh: make(chan int, 2)}
	go p.loop()
	go worker(p.evCh)
	<-p.evCh
	<-p.evCh
}

// dynamic spawns a function value: the body is invisible from here.
func dynamic(f func()) {
	go f() // want `dynamic function value`
}

type hooks struct{ onDone func() }

// field spawns a function-typed field — sched.Hooks' shape.
func field(h hooks) {
	go h.onDone() // want `dynamic function value`
}

type runner interface{ run() }

// iface spawns an interface method: the body is chosen at run time.
func iface(r runner) {
	go r.run() // want `interface method run`
}
