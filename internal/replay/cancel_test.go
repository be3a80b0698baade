package replay

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/benchmarks"
	"atropos/internal/cluster"
)

// pollCancel is a context that counts its Err polls and cancels itself on
// the at-th, so a cancellation lands at a chosen poll instead of at a
// wall-clock time (at = 0: never).
type pollCancel struct {
	context.Context
	cancel context.CancelFunc
	at     int64
	polls  atomic.Int64
}

func newPollCancel(at int64) *pollCancel {
	c := &pollCancel{at: at}
	c.Context, c.cancel = context.WithCancel(context.Background())
	return c
}

func (c *pollCancel) Err() error {
	if c.polls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCertifyStopsBetweenPairs: the replay phase polls its context once per
// pair, and a request cut short there gets the context's error and no
// certificate — not a replay of the remaining pairs under a dead context,
// and not a partial certificate passed off as whole.
func TestCertifyStopsBetweenPairs(t *testing.T) {
	prog := benchmarks.ByName("TPC-C").MustProgram()
	s := anomaly.NewSession(anomaly.EC)
	s.RecordWitnesses()
	s.SetParallelism(1)
	counting := newPollCancel(0)
	rep, err := s.DetectContext(counting, prog)
	counting.cancel()
	if err != nil {
		t.Fatal(err)
	}
	detectPolls := counting.polls.Load()

	// The third poll of the replay phase cancels: two pairs were certified.
	ctx := newPollCancel(3)
	cert, complete := certifyContext(ctx, cluster.NewDirectedPlan(prog), rep)
	ctx.cancel()
	if complete || cert.Total != 2 || len(cert.Outcomes) != 2 {
		t.Errorf("cancelled on the third pair: complete=%t, %d pairs counted, %d outcomes; want false, 2, 2",
			complete, cert.Total, len(cert.Outcomes))
	}

	// The same cancellation through the entry point the daemon calls,
	// detection's polls counted off first.
	ctx = newPollCancel(detectPolls + 3)
	cert, got, err := CertifyModelContext(ctx, prog, anomaly.EC)
	ctx.cancel()
	if !errors.Is(err, context.Canceled) || cert != nil || got != nil {
		t.Errorf("CertifyModelContext cancelled mid-replay = (%v, %v, %v), want (nil, nil, context.Canceled)", cert, got, err)
	}
	// One more poll reads the error to return; none certifies a pair.
	if polls := ctx.polls.Load(); polls > detectPolls+3+1 {
		t.Errorf("replay kept polling after the cancellation: %d polls, cancelled on poll %d", polls, detectPolls+3)
	}
}
