package core

import (
	"path/filepath"
	"testing"

	"gpudvfs/internal/backend"
)

// TestManifestProvenanceRoundTrip pins the manifest's backend/DVFS
// provenance: what OfflineTrain stamps must survive Save/Load exactly.
func TestManifestProvenanceRoundTrip(t *testing.T) {
	m, err := Train(smallDataset(t), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	m.Backend = "sim"
	m.DVFS = DVFSTableOf(backend.GA100())

	dir := filepath.Join(t.TempDir(), "models")
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Backend != "sim" {
		t.Fatalf("backend provenance = %q, want sim", loaded.Backend)
	}
	if loaded.DVFS != m.DVFS {
		t.Fatalf("DVFS provenance = %+v, want %+v", loaded.DVFS, m.DVFS)
	}
	if loaded.DVFS.IsZero() {
		t.Fatal("round-tripped DVFS table is zero")
	}
}

// TestManifestProvenanceOptional checks that models without provenance
// (trained from a CSV of unknown origin, or saved by an older manifest)
// still round trip, loading with zero provenance.
func TestManifestProvenanceOptional(t *testing.T) {
	m, err := Train(smallDataset(t), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "models")
	if err := m.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Backend != "" || !loaded.DVFS.IsZero() {
		t.Fatalf("provenance appeared from nowhere: backend %q, dvfs %+v", loaded.Backend, loaded.DVFS)
	}
}

func TestCheckDVFS(t *testing.T) {
	ga := backend.GA100()
	m := &Models{TrainedOn: ga.Name, DVFS: DVFSTableOf(ga)}

	if err := m.CheckDVFS(ga); err != nil {
		t.Fatalf("matching table rejected: %v", err)
	}
	// Cross-arch prediction (the paper's GA100→GV100 transfer) stays
	// supported: a different architecture name is not a mismatch.
	if err := m.CheckDVFS(backend.GV100()); err != nil {
		t.Fatalf("cross-arch target rejected: %v", err)
	}
	// No recorded table (legacy manifest) means nothing to check.
	legacy := &Models{TrainedOn: ga.Name}
	if err := legacy.CheckDVFS(ga); err != nil {
		t.Fatalf("zero table rejected: %v", err)
	}
	// Same name, different table: a deployment mismatch, refused.
	drifted := ga
	drifted.StepMHz = 30
	if err := m.CheckDVFS(drifted); err == nil {
		t.Fatal("mismatched DVFS table accepted for the trained-on architecture")
	}
}

// TestSweeperRefusesMismatchedDVFS checks the enforcement point: a loaded
// model must refuse to serve an architecture whose DVFS table drifted from
// the one it was trained on.
func TestSweeperRefusesMismatchedDVFS(t *testing.T) {
	m, err := Train(smallDataset(t), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	ga := backend.GA100()
	m.DVFS = DVFSTableOf(ga)

	if _, err := m.NewSweeper(ga, ga.DesignClocks(), nil); err != nil {
		t.Fatalf("matching target rejected: %v", err)
	}
	drifted := ga
	drifted.MinFreqMHz = 600
	if _, err := m.NewSweeper(drifted, drifted.DesignClocks(), nil); err == nil {
		t.Fatal("sweeper accepted a target with a drifted DVFS table")
	}
}
