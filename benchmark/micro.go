package main

import (
	"bytes"
	"fmt"
	"time"

	"kofl/internal/channel"
	"kofl/internal/core"
	"kofl/internal/message"
	"kofl/internal/serve"
)

// Micro-timings of single layers, taken in the traced pass only. Each is the
// cost of one call with nothing around it; multiplied by the calls per
// second a workload makes, it bounds what a change to that layer can buy.

// countEnv is a stub core.Env: the handlers' sends go nowhere.
type countEnv struct{ sent int }

func (e *countEnv) Send(int, message.Message) { e.sent++ }
func (e *countEnv) RestartTimer()             {}

var sink int // keeps the compiler from deleting measured calls

// perCallNS runs f(iters) and returns nanoseconds per iteration.
func perCallNS(iters int, f func(n int)) float64 {
	t0 := time.Now()
	f(iters)
	return float64(time.Since(t0)) / float64(iters)
}

// handleNS times Node.HandleMessage for resource tokens and for controller
// messages on an idle leaf: receive, bottom half, forward.
func handleNS(iters int) (resNS, ctrlNS float64) {
	cfg := core.Config{K: 2, L: 8, N: 1023, CMAX: 4, Features: core.Full()}
	leaf := core.MustNewNode(cfg, 1, 1, false, core.NopApp{})
	env := &countEnv{}
	resNS = perCallNS(iters, func(n int) {
		m := message.NewRes()
		for i := 0; i < n; i++ {
			leaf.HandleMessage(0, m, env)
		}
	})
	ctrlNS = perCallNS(iters, func(n int) {
		for i := 0; i < n; i++ {
			// The flag alternates, so every message is a fresh traversal
			// from the parent and not a duplicate.
			leaf.HandleMessage(0, message.NewCtrl(i&1, false, 0, 0), env)
		}
	})
	sink += env.sent
	return resNS, ctrlNS
}

// channelNS times one Push and one Pop on a channel holding a steady
// handful of messages.
func channelNS(iters int) float64 {
	c := channel.New(0, 0, 1, 0)
	for i := 0; i < 4; i++ {
		c.Push(message.NewRes())
	}
	return perCallNS(iters, func(n int) {
		m := message.NewPush()
		for i := 0; i < n; i++ {
			c.Push(m)
			sink += int(c.Pop().Kind)
		}
	})
}

// messageNS times the wire codec: Encode and Decode of a controller message.
func messageNS(iters int) float64 {
	buf := make([]byte, 0, message.FrameSize)
	return perCallNS(iters, func(n int) {
		for i := 0; i < n; i++ {
			b := message.Encode(buf[:0], message.NewCtrl(i&0xff, false, 3, 1))
			m, _, err := message.Decode(b)
			if err != nil {
				panic(err)
			}
			sink += m.C
		}
	})
}

// frameNS times the client-to-server frame path with no socket: WriteFrame,
// ReadFrame and ParseRequest of an acquire through a bytes.Buffer.
func frameNS(iters int) (float64, error) {
	var buf bytes.Buffer
	req := serve.Request{Op: serve.OpAcquire, ID: "o7-1700000000000000000-123456", Units: 2}
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		buf.Reset()
		if err := serve.WriteFrame(&buf, req); err != nil {
			return 0, err
		}
		body, err := serve.ReadFrame(&buf)
		if err != nil {
			return 0, err
		}
		r, err := serve.ParseRequest(body)
		if err != nil {
			return 0, err
		}
		if r.Units != req.Units {
			return 0, fmt.Errorf("frame round trip changed units %d to %d", req.Units, r.Units)
		}
	}
	return float64(time.Since(t0)) / float64(iters), nil
}
