package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the benchmark itself reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readContract(path string) (*contract, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// readRecords groups an -out file's values by workload and metric, in
// file order.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first and third quartile the way the driver takes
// them — Python's statistics.quantiles(vs, n=4), the "exclusive" method —
// so that a spread printed here is the spread the driver will see.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		return median(s), median(s)
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// verdict judges side b against side a on one metric. worse by is how far
// b's median is on the wrong side of a's, as a share of a's; spread is the
// wider of the two sides' interquartile ranges, as a share of its median.
//
//   - worse: b's median is worse than a's by more than the bound.
//   - better: b wins at least nine tenths of the pairs (runs paired in file
//     order, ties aside) and the medians differ by more than a's spread.
//   - unresolved: neither, and the spread is wider than the bound, so the
//     runs cannot show that nothing changed.
//   - same: otherwise.
func verdict(a, b []float64, lowerIsBetter bool, bound float64) (worseBy, spread float64, v string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return 0, 0, "same"
		}
		return 0, 0, "unresolved"
	}
	worseBy = (mb - ma) / ma
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	iqr := func(vs []float64) float64 {
		m := median(vs)
		if m == 0 {
			return 0
		}
		q1, q3 := quartiles(vs)
		return (q3 - q1) / m
	}
	spreadA := iqr(a)
	spread = spreadA
	if s := iqr(b); s > spread {
		spread = s
	}
	wins, pairs := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			continue
		}
		pairs++
		if (b[i] < a[i]) == lowerIsBetter {
			wins++
		}
	}
	switch {
	case worseBy > bound:
		v = "worse"
	case pairs > 0 && wins*10 >= pairs*9 && -worseBy > spreadA:
		v = "better"
	case spread > bound:
		v = "unresolved"
	default:
		v = "same"
	}
	return worseBy, spread, v
}

// compareFiles prints, for every workload and metric of the contract found
// in both files, each side's median and quartiles, how much worse side b
// is against the metric's bound, and the verdict. Per-layer metrics have
// no bound; they get medians and the change only.
func compareFiles(w io.Writer, contractPath, pathA, pathB string) error {
	c, err := readContract(contractPath)
	if err != nil {
		return err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	q := func(vs []float64) string {
		q1, q3 := quartiles(vs)
		return fmt.Sprintf("%11.5g [%11.5g %11.5g]", median(vs), q1, q3)
	}
	for _, wl := range c.Workloads {
		fmt.Fprintf(w, "%s\n  %-34s %-5s %-37s %-37s %8s %8s %7s  %s\n", wl.Name,
			"metric", "unit", "a: median [q1 q3]", "b: median [q1 q3]", "worse by", "spread", "bound", "verdict")
		for _, group := range [][]metricSpec{c.EndToEnd, c.PerLayer} {
			for _, m := range group {
				va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				worseBy, spread, v := verdict(va, vb, m.Better == "lower", m.Bound)
				bound := fmt.Sprintf("%6.1f%%", 100*m.Bound)
				if m.Bound == 0 {
					bound, v = "      -", "-"
				}
				fmt.Fprintf(w, "  %-34s %-5s %s %s %+7.1f%% %7.1f%% %s  %s\n", m.Name, m.Unit, q(va), q(vb), 100*worseBy, 100*spread, bound, v)
			}
		}
	}
	return nil
}
