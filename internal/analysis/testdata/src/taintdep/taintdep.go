// Package taintdep imports taintfacts and exercises hosttaint's
// fact-driven flows: taint that crosses the package boundary through a
// dependency return value, into a dependency sink parameter, and
// through a dependency validator — all invisible without facts.
package taintdep

import (
	"shmem"
	"taintfacts"
)

var table [64]byte

// badIndex: the length is fetched inside the dependency; only the
// imported RetTainted fact reveals it is host-controlled here.
func badIndex(r *shmem.Region) byte {
	n := taintfacts.FetchLen(r)
	return table[n] // want `host-controlled value \(via FetchLen\) indexes table`
}

// badSinkArg: a locally-fetched value flows into a dependency
// parameter whose imported fact says it reaches an indexing sink.
func badSinkArg(r *shmem.Region, buf []byte) byte {
	return taintfacts.Sum(buf, r.U32(0)) // want `passed to parameter "n" of Sum, which indexes buf`
}

// badVariadicArg: the host value is the second variadic argument; it
// maps to the variadic parameter's slot like the first.
func badVariadicArg(r *shmem.Region, buf []byte) byte {
	return taintfacts.SumAll(buf, 0, r.U32(0)) // want `passed to parameter "idx" of SumAll, which indexes buf`
}

// goodMasked: masking sanitizes before the boundary-crossing use.
func goodMasked(r *shmem.Region) byte {
	n := taintfacts.FetchLen(r)
	return table[n&63]
}

// goodChecked: the dependency validator's imported ParamChecked fact
// credits the fail-dead check.
func goodChecked(r *shmem.Region) byte {
	n := taintfacts.FetchLen(r)
	if err := taintfacts.CheckLen(n); err != nil {
		return 0
	}
	return table[n]
}
