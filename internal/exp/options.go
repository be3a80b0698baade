package exp

// Option configures an experiment driver.
type Option func(*options)

type options struct {
	parallelism int
}

// WithParallelism sets the number of worker goroutines an experiment may
// use; n <= 0 selects GOMAXPROCS (the default).
func WithParallelism(n int) Option {
	return func(o *options) { o.parallelism = n }
}

func buildOptions(opts []Option) options {
	var o options
	for _, f := range opts {
		f(&o)
	}
	return o
}
