package machine

import "fmt"

// Backend selects which of the machine's execution engines runs the
// module. Both are observationally identical — counters, cycles,
// outputs and fault outcomes match bit for bit (the golden-counters
// differential sweep in internal/bench proves it) — they differ only
// in speed:
//
//   - BackendCompiled — closure-threaded code compiled per basic block
//     from the pre-decoded form, with per-segment batched accounting
//     and an exact per-instruction fallback (careful.go). The zero
//     value, and the engine every production caller runs.
//   - BackendReference — the seed per-instruction interpreter (step).
//     The executable spec the compiled engine is differentially
//     tested against, and the only engine that records RegionTrace.
type Backend uint8

// Backends. BackendCompiled is the zero value, so an unset field means
// the production engine.
const (
	BackendCompiled Backend = iota
	BackendReference
)

func (b Backend) String() string {
	if names := [...]string{"compiled", "reference"}; int(b) < len(names) {
		return names[b]
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// ParseBackend maps the CLI/wire backend names to the enum. The empty
// string, "auto" and the retired "fast" all mean the compiled engine:
// job specs and fabric leases written before the pre-decoded
// interpreter was folded into it may still carry "fast", and the two
// were bit-identical, so the alias is exact.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "auto", "compiled", "fast":
		return BackendCompiled, nil
	case "reference":
		return BackendReference, nil
	}
	return BackendCompiled, fmt.Errorf("machine: unknown backend %q (want compiled or reference)", s)
}
