package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/testcost"
	"repro/internal/tta"
)

var sharedStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if sharedStudy == nil {
		s, err := NewStudy()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.ExploreContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		sharedStudy = s
	}
	return sharedStudy
}

func TestStudyEndToEnd(t *testing.T) {
	s := study(t)
	if s.SelectedArchitecture() == nil {
		t.Fatal("no architecture selected")
	}
	sum, err := s.Summary()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"candidates", "Pareto front", "selected"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary lacks %q:\n%s", want, sum)
		}
	}
}

func TestFigureTables(t *testing.T) {
	s := study(t)
	f2, err := s.Figure2Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Rows) < 4 {
		t.Errorf("figure 2 has only %d rows", len(f2.Rows))
	}
	f8, err := s.Figure8Table()
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) < 4 {
		t.Errorf("figure 8 has only %d rows", len(f8.Rows))
	}
	if !strings.Contains(f8.String(), "min norm") {
		t.Error("figure 8 table does not mark the selection")
	}
}

func TestFigurePlots(t *testing.T) {
	s := study(t)
	p2, err := s.Figure2Plot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p2, "*") || !strings.Contains(p2, "S") {
		t.Errorf("figure 2 plot lacks front or selection marks:\n%s", p2)
	}
	p8, err := s.Figure8Plot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p8, "test cost") {
		t.Error("figure 8 plot lacks axis label")
	}
}

func TestTable1OnSelectedArchitecture(t *testing.T) {
	s := study(t)
	tbl, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, col := range []string{"full scan", "our approach", "nl", "ftfu", "ftrf", "fts", "FC(%)"} {
		if !strings.Contains(out, col) {
			t.Errorf("table 1 lacks column %q", col)
		}
	}
	if !strings.Contains(out, "TOTAL") {
		t.Error("table 1 lacks the total row")
	}
	// Always-present units are parenthesized (excluded), as in the paper.
	if !strings.Contains(out, "(") {
		t.Error("excluded components not parenthesized")
	}
}

func TestTable1ForFigure9(t *testing.T) {
	ann := testcost.NewAnnotator(16, 7)
	tbl, err := Table1For(ann, tta.Figure9())
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, name := range []string{"ALU", "CMP", "RF1", "RF2", "LD/ST", "PC", "Immediate"} {
		if !strings.Contains(out, name) {
			t.Errorf("table 1 lacks row %q", name)
		}
	}
}

func TestStudyRequiresExplore(t *testing.T) {
	s, err := NewStudy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Figure2Table(); err == nil {
		t.Error("Figure2Table before Explore accepted")
	}
	if _, err := s.Summary(); err == nil {
		t.Error("Summary before Explore accepted")
	}
	if s.SelectedArchitecture() != nil {
		t.Error("selection exists before exploration")
	}
}

func TestStrategyTable(t *testing.T) {
	tbl, err := StrategyTable(tta.Figure9(), 7, 2048)
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"ALU", "CMP", "scan cycles", "BIST", "functional cycles"} {
		if !strings.Contains(out, want) {
			t.Errorf("strategy table lacks %q", want)
		}
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows, want 2 (ALU + CMP)", len(tbl.Rows))
	}
}
