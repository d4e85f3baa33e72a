package main

import (
	"strings"
	"testing"

	"spcd"
)

// TestChurnGridUsesMachine: every churn scenario runs on the configured
// machine, so arming a shootdown cost model changes the measured rows, not
// just the header that names the model.
func TestChurnGridUsesMachine(t *testing.T) {
	rows := func(shootdown string) string {
		t.Helper()
		m := spcd.DefaultMachine()
		if err := spcd.ConfigureShootdown(m, shootdown); err != nil {
			t.Fatal(err)
		}
		g := churnGrid{
			tenants: 2, class: spcd.ClassTest, machine: m, policies: []string{"static", "spcd"},
			axis: []float64{0}, seed: 42, reps: 1, budget: 4,
		}
		_, csv := g.run(1, 0)
		var keep []string
		for _, line := range strings.Split(csv, "\n") {
			if !strings.HasPrefix(line, "#") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	if none, ipi := rows("none"), rows("ipi"); none == ipi {
		t.Errorf("churn rows are identical with and without ipi shootdowns:\n%s", none)
	}
}
