package policy

import (
	"testing"

	"spcd/internal/engine"
	"spcd/internal/mapping"
	"spcd/internal/topology"
	"spcd/internal/trace"
	"spcd/internal/workloads"
)

func TestTLBByNameAndTuned(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("SP", 32, workloads.ClassTest)
	p, err := Tuned("tlb", w, mach)
	if err != nil || p.Name() != "tlb" {
		t.Fatalf("Tuned(tlb) = %v, %v", p, err)
	}
}

// tunedTLB returns the tuned TLB policy for w.
func tunedTLB(t *testing.T, w workloads.Workload, mach *topology.Machine) *TLB {
	t.Helper()
	p, err := Tuned("tlb", w, mach)
	if err != nil {
		t.Fatal(err)
	}
	return p.(*TLB)
}

func TestTLBDetectsCommunication(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("SP", 32, workloads.ClassTiny)
	p := tunedTLB(t, w, mach)
	m, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Scans() == 0 {
		t.Fatal("TLB policy never scanned")
	}
	if m.CommMatrix == nil || m.CommMatrix.Total() == 0 {
		t.Fatal("TLB policy detected nothing")
	}
	truth := trace.CommunicationMatrix(w, 1, mach.PageSize)
	if sim := m.CommMatrix.Similarity(truth); sim < 0.1 {
		t.Errorf("TLB detection similarity = %.3f, want >= 0.1", sim)
	}
	// Detection costs accrue; no induced faults (the TLB mechanism does
	// not perturb the page tables — its advantage in the related work).
	if p.Overheads().DetectionCycles == 0 {
		t.Error("scan cost should accrue")
	}
	if m.VM.InducedFaults != 0 {
		t.Errorf("TLB policy must not induce faults, got %d", m.VM.InducedFaults)
	}
}

func TestTLBCanMigrateTowardBetterPlacement(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("SP", 32, workloads.ClassTiny)
	p := tunedTLB(t, w, mach)
	m, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Migrations == 0 {
		t.Skip("no migration this configuration; detection too weak")
	}
	truth := trace.CommunicationMatrix(w, 1, mach.PageSize)
	final := p.aff
	if mapping.Cost(truth, mach, final) >= mapping.Cost(truth, mach, Scatter(mach, 32)) {
		t.Error("TLB-driven placement no better than scatter")
	}
}

func TestTLBFinalMatrixIsACopy(t *testing.T) {
	mach := topology.DefaultXeon()
	w, _ := workloads.NewNPB("CG", 8, workloads.ClassTest)
	p := tunedTLB(t, w, mach)
	if _, err := engine.Run(engine.Config{Machine: mach, Workload: w, Policy: p, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	a := p.FinalMatrix()
	b := p.FinalMatrix()
	a.Add(0, 1, 1000)
	if b.At(0, 1) == a.At(0, 1) {
		t.Error("FinalMatrix must return independent copies")
	}
}
