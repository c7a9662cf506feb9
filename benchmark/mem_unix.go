//go:build unix

package main

import "syscall"

// allocOffHeap returns n zeroed bytes outside the Go heap. The devices'
// buffers are hundreds of MiB; on the heap they would set the collector's
// pace (the heap goal is a multiple of live bytes) and drown the store's
// own memory in go_heap_mb. Anonymous mappings are demand-zeroed, so
// untouched blocks cost nothing.
func allocOffHeap(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

func freeOffHeap(b []byte) error { return syscall.Munmap(b) }
