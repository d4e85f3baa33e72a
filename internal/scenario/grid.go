package scenario

import (
	"fmt"
	"runtime/debug"
	"sync"

	"spcd/internal/sweep"
)

// RunJobs executes the given scenario specs, up to parallelism at a time
// (0 selects GOMAXPROCS, as in sweep.Workers), and returns their reports
// and errors positionally. Results are identical at every parallelism: each
// scenario is a pure function of its spec, jobs only ever write their own
// result slot (the sweep runner's collection idiom), and nothing is ordered
// by completion time. A panicking scenario is captured as that job's error;
// the rest of the batch completes. A negative parallelism fails every job.
func RunJobs(specs []Spec, parallelism int) ([]*Report, []error) {
	n := len(specs)
	reports := make([]*Report, n)
	errs := make([]error, n)
	workers, err := sweep.Workers(parallelism, n)
	if err != nil {
		for i := range errs {
			errs[i] = fmt.Errorf("scenario: %w", err)
		}
		return reports, errs
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reports[i], errs[i] = runJob(specs[i])
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return reports, errs
}

// runJob runs one scenario, converting a panic into an error so one broken
// spec cannot take down a batch.
func runJob(s Spec) (rep *Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("scenario: panic: %v\n%s", v, debug.Stack())
		}
	}()
	return Run(s)
}
