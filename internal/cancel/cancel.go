// Package cancel provides an amortised context poller for hot loops:
// checking ctx.Err() on every iteration of a cubic-time fixpoint or an
// exponential search tree is measurable, so Poller pays the check once
// per interval calls. The matching, simulation and enumeration loops
// all share this one implementation.
package cancel

import "context"

// Poller polls ctx.Err() once every interval Err calls. The zero value
// (and any Poller built from a context that cannot be cancelled) never
// reports an error and costs a nil check per call.
type Poller struct {
	ctx      context.Context
	done     <-chan struct{} // ctx.Done(); nil when cancellation is off
	interval int
	tick     int
}

// Every returns a Poller over ctx checking once per interval calls.
// interval <= 0 is clamped to 1 (check on every call): a non-positive
// interval would otherwise divide by zero on the first Err call of any
// cancellable context.
func Every(ctx context.Context, interval int) Poller {
	if interval < 1 {
		interval = 1
	}
	return Poller{ctx: ctx, done: ctx.Done(), interval: interval}
}

// Err returns ctx.Err() on polling calls, nil otherwise.
func (p *Poller) Err() error {
	if p.done == nil {
		return nil
	}
	// A countdown, not tick%interval: the division showed up as a tenth
	// of gpmd's CPU once the loops around it got cheap.
	p.tick++
	if p.tick < p.interval {
		return nil
	}
	p.tick = 0
	return p.ctx.Err()
}

// Now returns ctx.Err() without waiting for the interval: for callers
// whose unit of work between polls is already large (one frontier level
// of a graph sweep, one pass over a condensation).
func (p *Poller) Now() error {
	select {
	case <-p.done:
		return p.ctx.Err()
	default:
		return nil
	}
}
