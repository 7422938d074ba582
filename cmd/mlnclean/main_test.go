package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distributed"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// TestRunEndToEnd drives the CLI's run function over the paper's Table 1
// sample written to disk.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "dirty.csv")
	rulesPath := filepath.Join(dir, "rules.txt")
	output := filepath.Join(dir, "clean.csv")

	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "ST", "PN"))
	tb.MustAppend("ALABAMA", "DOTHAN", "AL", "3347938701")
	tb.MustAppend("ALABAMA", "DOTH", "AL", "3347938701")
	tb.MustAppend("ELIZA", "DOTHAN", "AL", "2567638410")
	tb.MustAppend("ELIZA", "BOAZ", "AK", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	if err := tb.WriteCSVFile(input); err != nil {
		t.Fatal(err)
	}
	rulesText := strings.Join([]string{
		"FD: CT -> ST",
		"DC: not(PN(t)=PN(t') and ST(t)!=ST(t'))",
		"CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400",
	}, "\n")
	if err := os.WriteFile(rulesPath, []byte(rulesText), 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run(runConfig{input: input, rulesPath: rulesPath, output: output, tau: 1, metricName: "levenshtein", workers: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
	clean, err := dataset.ReadCSVFile(output)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() != 2 {
		t.Fatalf("cleaned tuples = %d, want 2 (duplicates removed)\n%s", clean.Len(), clean)
	}
	for _, tp := range clean.Tuples {
		if clean.Cell(tp, "ST") == "AK" || clean.Cell(tp, "CT") == "DOTH" {
			t.Errorf("unrepaired tuple survived: %v", tp.Values)
		}
	}
}

// TestRunDeterministic runs the same CLI invocation twice, solo and through
// the distributed executor's online partitioner: the same invocation must
// give the same bytes.
func TestRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "dirty.csv")
	rulesPath := filepath.Join(dir, "rules.txt")

	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "ST", "PN"))
	tb.MustAppend("ALABAMA", "DOTHAN", "AL", "3347938701")
	tb.MustAppend("ALABAMA", "DOTH", "AL", "3347938701")
	tb.MustAppend("ELIZA", "DOTHAN", "AL", "2567638410")
	tb.MustAppend("ELIZA", "BOAZ", "AK", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	if err := tb.WriteCSVFile(input); err != nil {
		t.Fatal(err)
	}
	rulesText := strings.Join([]string{
		"FD: CT -> ST",
		"DC: not(PN(t)=PN(t') and ST(t)!=ST(t'))",
		"CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400",
	}, "\n")
	if err := os.WriteFile(rulesPath, []byte(rulesText), 0o644); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(dir, "out.csv")
	render := func(workers int) string {
		t.Helper()
		cfg := runConfig{
			input: input, rulesPath: rulesPath, output: out,
			tau: 1, metricName: "levenshtein",
			workers: workers, batchSize: 2, seed: 1,
		}
		if err := run(cfg); err != nil {
			t.Fatalf("run (workers=%d): %v", workers, err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, workers := range []int{1, 2} {
		if first, again := render(workers), render(workers); again != first {
			t.Errorf("workers=%d: run is nondeterministic:\nfirst:\n%s\nagain:\n%s", workers, first, again)
		}
	}
}

func TestRunKeepDuplicates(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "dirty.csv")
	rulesPath := filepath.Join(dir, "rules.txt")
	output := filepath.Join(dir, "clean.csv")
	tb := dataset.NewTable(dataset.MustSchema("A", "B"))
	tb.MustAppend("x", "1")
	tb.MustAppend("x", "1")
	if err := tb.WriteCSVFile(input); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rulesPath, []byte("FD: A -> B\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{input: input, rulesPath: rulesPath, output: output, tau: 1, metricName: "levenshtein", keepDups: true, verbose: true, workers: 1}); err != nil {
		t.Fatalf("run: %v", err)
	}
	clean, err := dataset.ReadCSVFile(output)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() != 2 {
		t.Errorf("keep-duplicates dropped rows: %d", clean.Len())
	}
}

// TestRunDistributed drives the CLI through the distributed variant and
// checks it writes what distributed.CleanStream cleans from the same file.
func TestRunDistributed(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "dirty.csv")
	rulesPath := filepath.Join(dir, "rules.txt")
	output := filepath.Join(dir, "clean.csv")

	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "ST", "PN"))
	tb.MustAppend("ALABAMA", "DOTHAN", "AL", "3347938701")
	tb.MustAppend("ALABAMA", "DOTH", "AL", "3347938701")
	tb.MustAppend("ELIZA", "DOTHAN", "AL", "2567638410")
	tb.MustAppend("ELIZA", "BOAZ", "AK", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	tb.MustAppend("ELIZA", "BOAZ", "AL", "2567688400")
	if err := tb.WriteCSVFile(input); err != nil {
		t.Fatal(err)
	}
	rulesText := strings.Join([]string{
		"FD: CT -> ST",
		"DC: not(PN(t)=PN(t') and ST(t)!=ST(t'))",
		"CFD: HN=ELIZA, CT=BOAZ -> PN=2567688400",
	}, "\n")
	if err := os.WriteFile(rulesPath, []byte(rulesText), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := runConfig{
		input: input, rulesPath: rulesPath, output: output,
		tau: 1, metricName: "levenshtein",
		workers: 2, batchSize: 2, seed: 1,
	}
	if err := run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	clean, err := dataset.ReadCSVFile(output)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() == 0 || clean.Len() >= tb.Len() {
		t.Errorf("cleaned tuples = %d, want deduplicated subset", clean.Len())
	}
	stream, err := dataset.StreamCSVFile(input)
	if err != nil {
		t.Fatal(err)
	}
	res, err := distributed.CleanStream(context.Background(), stream, rules.MustParseStrings(strings.Split(rulesText, "\n")...),
		distributed.Options{Workers: 2, Seed: 1, Core: core.Options{Tau: 1}, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Len() != res.Clean.Len() || len(clean.Diff(res.Clean)) != 0 {
		t.Error("the CLI cleaned the sample differently from distributed.CleanStream")
	}
}

// TestRunTau: -tau 0 disables AGP — the CLI writes what core.Clean writes at
// τ = 0 — which on a 1,992-tuple HAI table is not what τ = 1 cleans, on the
// solo and the distributed path alike; a negative -tau is rejected.
func TestRunTau(t *testing.T) {
	truth, rs, err := datagen.HAI(datagen.HAIConfig{Rows: 2000, Providers: 2000 / 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.1, ReplacementRatio: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	input := filepath.Join(dir, "dirty.csv")
	rulesPath := filepath.Join(dir, "rules.txt")
	output := filepath.Join(dir, "clean.csv")
	if err := inj.Dirty.WriteCSVFile(input); err != nil {
		t.Fatal(err)
	}
	// datagen.HAIRules, as rule-file lines.
	rulesText := strings.Join([]string{
		"FD: PhoneNumber -> ZIPCode",
		"FD: PhoneNumber -> State",
		"FD: ZIPCode -> City",
		"FD: MeasureID -> MeasureName",
		"FD: ZIPCode -> CountyName",
		"FD: ProviderID -> City, PhoneNumber",
		"DC: not(PhoneNumber(t)=PhoneNumber(t') and State(t)!=State(t'))",
	}, "\n")
	if err := os.WriteFile(rulesPath, []byte(rulesText), 0o644); err != nil {
		t.Fatal(err)
	}
	render := func(tau, workers int) string {
		t.Helper()
		cfg := runConfig{input: input, rulesPath: rulesPath, output: output, tau: tau, metricName: "levenshtein", workers: workers, batchSize: 1024, seed: 1}
		if err := run(cfg); err != nil {
			t.Fatalf("run (tau=%d, workers=%d): %v", tau, workers, err)
		}
		b, err := os.ReadFile(output)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	want, err := core.Clean(inj.Dirty, rs, core.Options{Tau: 0, TauSet: true})
	if err != nil {
		t.Fatal(err)
	}
	if want.Stats.AbnormalGroups != 0 {
		t.Fatalf("core.Clean at τ = 0 found %d abnormal groups", want.Stats.AbnormalGroups)
	}
	var buf strings.Builder
	if err := want.Clean.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := render(0, 1); got != buf.String() {
		t.Error("-tau 0 does not write what core.Clean writes at τ = 0")
	}
	if render(1, 1) == buf.String() {
		t.Error("-tau 1 writes what τ = 0 writes: the fixture cannot tell τ = 0 from the default")
	}
	if render(0, 2) == render(1, 2) {
		t.Error("-tau 0 and -tau 1 write the same table with -workers 2")
	}

	cfg := runConfig{input: input, rulesPath: rulesPath, tau: -1, metricName: "levenshtein", workers: 1}
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "-tau") {
		t.Errorf("run with -tau -1 = %v, want an error naming -tau", err)
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run(runConfig{input: filepath.Join(dir, "missing.csv"), rulesPath: "also-missing", tau: 1, metricName: "levenshtein", workers: 1}); err == nil {
		t.Error("missing input should fail")
	}
	input := filepath.Join(dir, "in.csv")
	tb := dataset.NewTable(dataset.MustSchema("A"))
	tb.MustAppend("x")
	if err := tb.WriteCSVFile(input); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{input: input, rulesPath: filepath.Join(dir, "norules"), tau: 1, metricName: "levenshtein", workers: 1}); err == nil {
		t.Error("missing rules should fail")
	}
	badRules := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badRules, []byte("FD: broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runConfig{input: input, rulesPath: badRules, tau: 1, metricName: "levenshtein", workers: 1}); err == nil {
		t.Error("broken rules should fail")
	}
	// The metric name is checked before any file is read.
	err := run(runConfig{input: input, rulesPath: badRules, tau: 1, metricName: "cosin", workers: 1})
	if err == nil || !strings.Contains(err.Error(), "levenshtein") || !strings.Contains(err.Error(), "cosine") {
		t.Errorf("misspelled metric: err = %v, want an error naming levenshtein and cosine", err)
	}
}
