package kofl

import (
	"time"

	"kofl/internal/runtime"
)

// Live is a goroutine-per-process protocol instance over buffered Go
// channels: real concurrency, wire-encoded frames, wall-clock root timeout.
// See runtime.Net for the full method set (Start, Stop, Request, Release,
// OnEnter, Grants, InjectGarbage, InjectNoise, Corrupt). An entry is a
// grant, signalled by OnEnter, only when the application asked and the
// process entered with the need it asked for; any other entry, such as one
// a Corrupt fault causes, is released at once.
type Live = runtime.Net

// LiveOptions configures a Live network.
type LiveOptions struct {
	Options
	// Timeout is the root's wall-clock retransmission timeout (default
	// 25ms). The root fires once at Start, as the simulator's fast-forward
	// does.
	Timeout time.Duration
}

// NewLive builds a live network over t. Call Start to launch it; the root's
// timeout fires at once and its controller lap creates the tokens. Only the
// full (self-stabilizing) variant is supported live — the other rungs exist
// for the simulator's ablations.
func NewLive(t *Tree, opts LiveOptions) (*Live, error) {
	return runtime.New(t, opts.Options.config(t), runtime.Options{Timeout: opts.Timeout})
}
