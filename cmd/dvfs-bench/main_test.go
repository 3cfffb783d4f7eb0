package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunStaticTables exercises the harness end to end on the artifacts
// that need no collection or training (tab1, tab2, tab7 are static).
func TestRunStaticTables(t *testing.T) {
	out := filepath.Join(t.TempDir(), "results")
	if err := run("tab1,tab2,tab7", false, false, false, false, 1, 1, 1, out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"tab1.txt", "tab2.txt", "tab7.txt"} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", name)
		}
	}
	tab1, _ := os.ReadFile(filepath.Join(out, "tab1.txt"))
	if !strings.Contains(string(tab1), "61 out of 81") {
		t.Fatalf("tab1 missing DVFS configuration counts:\n%s", tab1)
	}
}

func TestRunUnknownArtifact(t *testing.T) {
	if err := run("fig99", false, false, false, false, 1, 1, 1, ""); err == nil {
		t.Fatal("unknown artifact accepted")
	}
}

func TestRunWhitespaceIDs(t *testing.T) {
	if err := run(" tab7 , tab1 ", false, false, false, false, 1, 1, 1, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdownOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "md")
	if err := run("tab7", false, false, false, true, 1, 1, 1, out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "tab7.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "| study |") && !strings.Contains(string(data), "|---|") {
		t.Fatalf("not markdown:\n%s", data)
	}
}
