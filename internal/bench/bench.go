// Package bench reproduces the paper, and only the paper: one runner per
// paper exhibit (T1 = Table 1, F1 = Figure 1) and per claim-derived
// experiment (E1–E9), printed by cmd/hfadbench. The paper is a position
// paper with no quantitative evaluation, so these experiments
// operationalize its claims against the hierarchical baseline; see
// DESIGN.md for the index. Each exhibit is defined here and only here.
// The store's own performance is measured by `go run ./benchmark`.
//
// Each runner takes a Scale: Smoke for unit tests, Full for the
// cmd/hfadbench reproduction runs. Experiments that depend on device
// behaviour use the simulated cost models (virtual time, deterministic);
// concurrency experiments use wall-clock ops/sec.
package bench

import (
	"fmt"
	"time"

	"repro/hfad"
	"repro/internal/blockdev"
	"repro/internal/hierfs"
	"repro/internal/stats"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	Smoke Scale = iota // seconds-fast, for tests
	Full               // the hfadbench reproduction runs
)

// Result is one experiment's rendered output.
type Result struct {
	ID     string
	Claim  string // what the paper asserts
	Tables []*stats.Table
	Notes  []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	out := fmt.Sprintf("### %s\nClaim: %s\n\n", r.ID, r.Claim)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Runner is one experiment.
type Runner struct {
	ID   string
	Name string
	Run  func(Scale) (*Result, error)
}

// All returns every experiment in presentation order.
func All() []Runner {
	return []Runner{
		{"T1", "Table 1 tag/value API uses", RunT1},
		{"F1", "Figure 1 architecture walk", RunF1},
		{"E1", "search-to-data index traversals", RunE1},
		{"E2", "shared-ancestor concurrency", RunE2},
		{"E3", "middle-of-object insert", RunE3},
		{"E4", "multiple names per object", RunE4},
		{"E5", "attribute search at scale", RunE5},
		{"E6", "clustering vs device model", RunE6},
		{"E7", "extent map ablation", RunE7},
		{"E8", "index sharding ablation", RunE8},
		{"E9", "lazy full-text indexing", RunE9},
	}
}

// Find returns the runner with the given id, or nil.
func Find(id string) *Runner {
	for _, r := range All() {
		if r.ID == id {
			rr := r
			return &rr
		}
	}
	return nil
}

// --- shared setup helpers ---

// devBlocks returns a device size appropriate to the scale.
func devBlocks(s Scale, smoke, full uint64) uint64 {
	if s == Full {
		return full
	}
	return smoke
}

func pick(s Scale, smoke, full int) int {
	if s == Full {
		return full
	}
	return smoke
}

// newHFAD creates an hFAD store over a simulated device with the given
// cost model, returning both.
func newHFAD(blocks uint64, model blockdev.CostModel, opts hfad.Options) (*hfad.Store, *blockdev.SimDevice, error) {
	sim := blockdev.NewSim(blockdev.NewMem(blocks, blockdev.DefaultBlockSize), model)
	st, err := hfad.Create(sim, opts)
	if err != nil {
		return nil, nil, err
	}
	return st, sim, nil
}

// newHierFS creates the baseline FS over a simulated device.
func newHierFS(blocks uint64, model blockdev.CostModel) (*hierfs.FS, *blockdev.SimDevice, error) {
	return newHierFSCfg(blocks, model, hierfs.Config{})
}

// newHierFSCfg is newHierFS with mkfs parameters (inode count etc.).
func newHierFSCfg(blocks uint64, model blockdev.CostModel, cfg hierfs.Config) (*hierfs.FS, *blockdev.SimDevice, error) {
	sim := blockdev.NewSim(blockdev.NewMem(blocks, blockdev.DefaultBlockSize), model)
	fs, err := hierfs.Mkfs(sim, cfg)
	if err != nil {
		return nil, nil, err
	}
	return fs, sim, nil
}

// us renders a duration as microseconds with compact precision.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ms renders a duration as milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fmtBytes renders a byte count compactly (64K, 1M, 16M).
func fmtBytes(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return fmt.Sprintf("%d", n)
	}
}
