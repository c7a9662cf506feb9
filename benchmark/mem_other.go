//go:build !unix

package main

// Without mmap the buffers live on the Go heap: the benchmark still runs,
// but go_heap_mb and the collector's pace include them.
func allocOffHeap(n int) ([]byte, error) { return make([]byte, n), nil }

func freeOffHeap([]byte) error { return nil }
