package repair

import (
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"atropos/internal/anomaly"
	"atropos/internal/corpus"
)

// stepsObserved is where a failing TestStepsGolden writes the table it
// computed.
const stepsObserved = "testdata/steps.observed.tsv"

// TestStepsGolden pins the text a repair logs — every Result.Steps entry
// and every introduced correspondence's String — for the nine benchmarks
// under EC, CC and RR and progen seeds 0–95 under EC, as FNV-1a digests in
// testdata/steps.tsv (cell, step count, steps digest, corrs digest). The
// program golden sees what a repair does; this one sees what it says, the
// failure reasons of every rule it tried included. A failing run writes
// the observed table to testdata/steps.observed.tsv (git-ignored); after
// a deliberate change, diff the two and move it over the table.
func TestStepsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/steps.tsv")
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		name  string
		model anomaly.Model
		prog  corpus.Program
	}
	var cells []cell
	for _, p := range corpus.Benchmarks() {
		for _, m := range []anomaly.Model{anomaly.EC, anomaly.CC, anomaly.RR} {
			cells = append(cells, cell{p.Name + "/" + m.String(), m, p})
		}
	}
	for _, p := range corpus.Progen(0, 96) {
		cells = append(cells, cell{p.Name + "/EC", anomaly.EC, p})
	}
	var out strings.Builder
	for _, c := range cells {
		res, err := Run(context.Background(), c.prog.Prog, c.model)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sh, ch := fnv.New64a(), fnv.New64a()
		for _, s := range res.Steps {
			fmt.Fprintln(sh, s)
		}
		for _, v := range res.Corrs {
			fmt.Fprintln(ch, v)
		}
		fmt.Fprintf(&out, "%s\t%d\t%#016x\t%#016x\n", c.name, len(res.Steps), sh.Sum64(), ch.Sum64())
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(wantLines) != len(gotLines) {
		t.Errorf("%d cells, golden %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < min(len(wantLines), len(gotLines)); i++ {
		if wantLines[i] != gotLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
	if t.Failed() {
		if err := os.WriteFile(stepsObserved, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
