// Live: the protocol under real concurrency.
//
// One goroutine per process, one buffered inbox per process that its
// neighbours write into, frames wire-encoded, and the root's retransmission
// timeout on the wall clock. Before start, every link is polluted with
// garbage frames — the protocol bootstraps anyway, and concurrent clients on
// every process lease and return units through the blocking-style API.
//
// Run: go run ./examples/live
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"kofl"
)

func main() {
	tr := kofl.Balanced(2, 3) // 15 processes
	net, err := kofl.NewLive(tr, kofl.LiveOptions{
		Options: kofl.Options{K: 2, L: 4, CMAX: 5},
		Timeout: 10 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Pollute the links, then start: self-stabilization on a live substrate.
	net.InjectGarbage(1)
	net.InjectNoise(2, 40)

	granted := make([]chan struct{}, tr.N())
	for p := 0; p < tr.N(); p++ {
		granted[p] = make(chan struct{}, 8)
		p := p
		net.OnEnter(p, func(int) { granted[p] <- struct{}{} })
	}
	net.Start(context.Background())
	defer net.Stop()

	const rounds = 5
	var wg sync.WaitGroup
	start := time.Now()
	for p := 1; p < tr.N(); p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				need := 1 + (p+r)%2
				if err := net.Request(p, need); err != nil {
					log.Printf("process %d: %v", p, err)
					return
				}
				<-granted[p] // blocks until the protocol grants the units
				time.Sleep(time.Millisecond)
				net.Release(p)
			}
		}(p)
	}
	wg.Wait()

	fmt.Printf("%d processes × %d rounds served in %v\n", tr.N()-1, rounds, time.Since(start).Round(time.Millisecond))
	fmt.Printf("grants: %d, frames delivered: %d, garbage frames rejected by the wire layer: %d\n",
		net.Grants(), net.FramesDelivered(), net.FramesRejected())
}
