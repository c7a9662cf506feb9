// Command hfadvet is the multichecker for this module's invariant
// analyzers. It speaks the go command's vettool protocol, so the
// canonical invocation is
//
//	go vet -vettool=$(command -v hfadvet) ./...
//
// (or any built path to the binary). As a convenience, invoking it with
// package patterns instead of a vet .cfg file re-executes itself through
// `go vet`:
//
//	hfadvet ./...
//
// Analyzers (each documented in its package under internal/analysis):
//
//	lockorder        documented lock order Volume.mu → extent.Tree.mu →
//	                 osd.Store.rowMu → btree.Tree.mu → pager shard
//	                 latches never inverts
//	sentinelerr      sentinel errors are matched with errors.Is, not ==
//	waldata          no direct device writes bypass the WAL capture in
//	                 btree, extent, osd
//	pinescape        values derived from a page pinned by a With closure
//	                 must not outlive the closure (interprocedural taint
//	                 facts); Acquire/Release are not called outside pager
//	syncerr          errors from durability barriers (Sync, Close,
//	                 FlushDirty, Checkpoint) are checked (liveness);
//	                 op-threading call errors are not dropped
//
// The operation bracket and the page pin need no analyzer of their own:
// core's withOp takes the operation as a closure and commits it on
// return, and pager.With takes the pinned page as a closure and unpins it
// on return, so neither a bracket that never commits nor a leaked pin can
// be written.
//
// Nor does recovery's coverage of the log: each log vocabulary (redo
// kinds, btree, extent and undo opcodes) is dispatched through one table
// indexed by its code and sized by the count that ends its constant
// block, and a unit test beside each table fails on a code with no entry.
//
// A finding can be suppressed — visibly, greppably — with a trailing
// comment: //hfadvet:allow <analyzer> — reason.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/pinescape"
	"repro/internal/analysis/sentinelerr"
	"repro/internal/analysis/syncerr"
	"repro/internal/analysis/unitchecker"
	"repro/internal/analysis/waldata"
)

func analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		sentinelerr.Analyzer,
		waldata.Analyzer,
		pinescape.Analyzer,
		syncerr.Analyzer,
	}
}

func main() {
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") && !strings.HasSuffix(args[len(args)-1], ".cfg") {
		// Package patterns: drive ourselves through go vet, which owns
		// package loading, export data, and per-package fact caching.
		standalone(args)
	}
	unitchecker.Main(analyzers()...)
}

func standalone(patterns []string) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hfadvet: %v\n", err)
		os.Exit(1)
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, patterns...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "hfadvet: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}
