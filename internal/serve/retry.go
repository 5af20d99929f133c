package serve

import "time"

// retryPolicy is a capped-exponential retry policy for the server's
// checkpoint writes: Attempts tries (at least one), sleeping Base,
// 2·Base, 4·Base … (capped at Cap) between them through Sleep, which a
// test replaces so that it never touches the wall clock. The
// replay-critical path backs off in frames instead
// (core.PipelineConfig.TrainBackoffFrames).
type retryPolicy struct {
	Attempts  int
	Base, Cap time.Duration
	Sleep     func(time.Duration)
}

// defaultRetry is the checkpoint-write policy.
func defaultRetry() retryPolicy {
	return retryPolicy{Attempts: 3, Base: 100 * time.Millisecond, Cap: 2 * time.Second, Sleep: time.Sleep}
}

// Do runs op until it succeeds or Attempts run out, calling onFail (if
// non-nil) after each failed attempt with its 1-based number, and returns
// the last error (nil on success).
func (p retryPolicy) Do(op func() error, onFail func(attempt int, err error)) error {
	backoff := p.Base
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			return nil
		}
		if onFail != nil {
			onFail(attempt, err)
		}
		if attempt >= p.Attempts {
			return err
		}
		p.Sleep(backoff)
		backoff = min(2*backoff, p.Cap)
	}
}
