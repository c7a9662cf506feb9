package a

import "pager"

func mutate(op *pager.Op, n int) error {
	op.N = n
	return nil
}

// threaded passes the mutator's verdict on.
func threaded(op *pager.Op) error {
	return mutate(op, 1)
}

// drop discards a mutator's error while threading the op: the capture
// no longer matches the structure the caller believes in.
func drop(op *pager.Op) {
	mutate(op, 2) // want "error result of op-threading call is discarded"
}
