// Corpus for the //ciovet:allow directive machinery itself: malformed and
// dead directives are diagnostics, well-formed ones suppress and are
// recorded.
package allowdir

import "shmem"

// MissingRule has a directive with no rule name at all.
func MissingRule(r *shmem.Region, arr []byte) byte {
	//ciovet:allow
	return arr[r.U32(0)]
}

// MissingReason names a rule but gives no reason.
func MissingReason(r *shmem.Region, arr []byte) byte {
	//ciovet:allow hosttaint
	return arr[r.U32(0)]
}

// Suppressed opts out correctly.
func Suppressed(r *shmem.Region, arr []byte) byte {
	//ciovet:allow hosttaint reason recorded for the audit trail
	return arr[r.U32(0)]
}

// WrongRule names a different rule; the diagnostic still fires.
func WrongRule(r *shmem.Region, arr []byte) byte {
	//ciovet:allow doublefetch suppressing the wrong rule does nothing
	return arr[r.U32(0)]
}

// Wildcard opts out of every rule on the line.
func Wildcard(r *shmem.Region, arr []byte) byte {
	//ciovet:allow * adversarial corpus line exercising the wildcard
	return arr[r.U32(0)]
}

// UnknownRule names a rule the suite does not have; the directive is a
// diagnostic and the finding still fires.
func UnknownRule(r *shmem.Region, arr []byte) byte {
	//ciovet:allow maskidx the rule was folded into hosttaint
	return arr[r.U32(0)]
}

// Unused opts a clean line out of a rule that ran: the directive is dead.
func Unused(r *shmem.Region, arr []byte) byte {
	//ciovet:allow hosttaint the index is masked, nothing to suppress
	return arr[r.U32(0)&63]
}
