// Package pager is a fixture stub: syncerr matches the operation capture
// *pager.Op by the last element of the defining package's path, so this
// stands in for the real pager.
package pager

// Op is the capture handle threaded through mutators.
type Op struct {
	N int
}
