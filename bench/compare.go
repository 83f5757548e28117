package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultFile is what a set of runs writes: the environment it ran in and
// every raw sample.
type resultFile struct {
	Env       envInfo           `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
}

type envInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the measured children
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	Smoke      bool   `json:"smoke"`
	Trace      bool   `json:"trace"`
	Started    string `json:"started"`
}

func loadResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// judge compares one end-to-end metric between a baseline set a and a
// set b. worse is b's change against a in the metric's bad direction, as
// a share of a's value. The verdict is unresolved when either set's
// interquartile range exceeds the bound (ok_frac is a share, not a
// median, and has no spread), else worse or better when the change
// passes the bound, else within.
func judge(m metricDef, a, b *workloadResult) (worse float64, verdict string) {
	va, vb := a.value(m.name), b.value(m.name)
	worse = ratio(vb-va, va)
	if m.better == "higher" {
		worse = -worse
	}
	switch {
	case m.name != "ok_frac" && (spread(a.samples(m.name)) > m.bound || spread(b.samples(m.name)) > m.bound):
		return worse, "unresolved"
	case worse > m.bound:
		return worse, "worse"
	case worse < -m.bound:
		return worse, "better"
	}
	return worse, "within"
}

// compareFiles prints, for each workload in both files and each
// end-to-end metric, both medians with their quartiles, the change, the
// bound and a verdict. It returns how many pairs were worse.
func compareFiles(pathA, pathB string, w io.Writer) (int, error) {
	a, err := loadResult(pathA)
	if err != nil {
		return 0, err
	}
	b, err := loadResult(pathB)
	if err != nil {
		return 0, err
	}
	inB := make(map[string]*workloadResult, len(b.Workloads))
	for _, r := range b.Workloads {
		inB[r.Name] = r
	}
	fmt.Fprintf(w, "A: %s (seed %d, %d reps)\nB: %s (seed %d, %d reps)\n\n",
		pathA, a.Env.Seed, a.Env.Reps, pathB, b.Env.Seed, b.Env.Reps)
	fmt.Fprintf(w, "%-13s %-12s %32s %32s %8s %6s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "verdict")
	worse := 0
	for _, ra := range a.Workloads {
		rb := inB[ra.Name]
		if rb == nil {
			fmt.Fprintf(w, "%-13s missing from B\n", ra.Name)
			continue
		}
		for _, m := range endToEnd {
			d, v := judge(m, ra, rb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-12s %32s %32s %+7.2f%% %5.1f%%  %s\n",
				ra.Name, m.name, withQuartiles(ra, m.name), withQuartiles(rb, m.name), 100*d, 100*m.bound, v)
		}
	}
	return worse, nil
}

func withQuartiles(r *workloadResult, metric string) string {
	q1, q3 := quartiles(r.samples(metric))
	return fmt.Sprintf("%.4g [%.4g, %.4g]", r.value(metric), q1, q3)
}
