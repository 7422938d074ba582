package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mlnclean/internal/dataset"
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
			workers: workers, transport: "chan", batchSize: 2, seed: 1,
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

// TestRunDistributed drives the CLI through the distributed executor, once
// per transport, and checks both clean the sample identically.
func TestRunDistributed(t *testing.T) {
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

	outputs := make(map[string]*dataset.Table)
	for _, transport := range []string{"chan", "gob"} {
		output := filepath.Join(dir, "clean-"+transport+".csv")
		cfg := runConfig{
			input: input, rulesPath: rulesPath, output: output,
			tau: 1, metricName: "levenshtein",
			workers: 2, transport: transport, batchSize: 2, seed: 1,
		}
		if err := run(cfg); err != nil {
			t.Fatalf("run (%s): %v", transport, err)
		}
		clean, err := dataset.ReadCSVFile(output)
		if err != nil {
			t.Fatal(err)
		}
		if clean.Len() == 0 || clean.Len() >= tb.Len() {
			t.Errorf("%s: cleaned tuples = %d, want deduplicated subset", transport, clean.Len())
		}
		outputs[transport] = clean
	}
	if a, b := outputs["chan"], outputs["gob"]; a.Len() != b.Len() || len(a.Diff(b)) != 0 {
		t.Error("chan and gob transports cleaned the sample differently")
	}

	cfg := runConfig{input: input, rulesPath: rulesPath, tau: 1, metricName: "levenshtein", workers: 2, transport: "carrier-pigeon"}
	if err := run(cfg); err == nil {
		t.Error("unknown transport should fail")
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
