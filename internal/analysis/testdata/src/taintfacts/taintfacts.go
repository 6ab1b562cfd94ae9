// Package taintfacts is the dependency side of the cross-package taint
// fixture: a host-controlled return, a parameter-to-sink flow, and a
// factored-out validator, each silent in-package but exported as
// TaintFacts for the taintdep package to consult.
package taintfacts

import (
	"errors"
	"shmem"
)

// FetchLen returns a length read straight from the shared window: the
// result is host-controlled, recorded in the fact as RetTainted.
func FetchLen(r *shmem.Region) uint32 {
	return r.U32(8)
}

// Sum indexes its buffer with n unsanitized: parameter slot 1 reaches
// an indexing sink, recorded in the fact as ParamSink.
func Sum(buf []byte, n uint32) byte {
	return buf[n]
}

// SumAll indexes its buffer with every variadic argument unsanitized:
// the variadic parameter, slot 1, reaches an indexing sink.
func SumAll(buf []byte, idx ...uint32) byte {
	var s byte
	for _, i := range idx {
		s += buf[i]
	}
	return s
}

// CheckLen is the factored-out validator shape: it bounds-checks n in
// a terminating guard, recorded in the fact as ParamChecked.
func CheckLen(n uint32) error {
	if n > 4096 {
		return errors.New("length out of range")
	}
	return nil
}
