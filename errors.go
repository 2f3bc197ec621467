package nomad

import "fmt"

// Error is the typed error returned by Run and RunContext, and by
// RunExperimentResult for options it rejects. It identifies the failing
// simulation (scheme, workload) and the stage that failed, and wraps the
// underlying cause, so callers can match with errors.Is/errors.As — in
// particular, a cancelled RunContext satisfies
// errors.Is(err, context.Canceled).
type Error struct {
	// Op is the failing stage: "validate" (a Config or ExperimentOptions
	// field out of range), "configure" (machine construction) or "run"
	// (simulation, including cancellation and cycle-limit timeouts).
	Op string
	// Scheme and Workload identify the simulation that failed.
	Scheme   Scheme
	Workload string
	// Err is the underlying cause.
	Err error
}

func (e *Error) Error() string {
	if e.Scheme == "" && e.Workload == "" {
		return fmt.Sprintf("nomad: %s: %v", e.Op, e.Err)
	}
	return fmt.Sprintf("nomad: %s %s/%s: %v", e.Op, e.Scheme, e.Workload, e.Err)
}

// Unwrap exposes the cause to errors.Is and errors.As.
func (e *Error) Unwrap() error { return e.Err }
