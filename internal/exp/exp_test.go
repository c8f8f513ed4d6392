package exp

import (
	"strconv"
	"strings"
	"testing"
)

func quick() Config { return Config{Seed: 7, SystemsPerPoint: 8, SimHorizon: 2000} }

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err == nil {
		t.Error("zero config must be invalid")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Error(err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Error(err)
	}
}

// TestE22DominanceAndVerification runs the policy-comparison experiment at
// quick scale: the result must certify zero dominance violations (the Notes
// record the per-trial check) and the SEMI and RESERVATION columns must be
// pointwise ≥ the FEDCONS column.
func TestE22DominanceAndVerification(t *testing.T) {
	res, err := E22PolicyComparison(quick())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "UNEXPECTED") {
			t.Errorf("dominance violation recorded: %s", n)
		}
		if strings.Contains(n, "0 violations") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes do not certify the dominance check: %v", res.Notes)
	}
	col := func(row []string, k int) float64 {
		v, err := strconv.ParseFloat(row[k], 64)
		if err != nil {
			t.Fatalf("column %d of row %v: %v", k, row, err)
		}
		return v
	}
	for _, row := range res.Table.Rows {
		fedcons, semi, resv := col(row, 2), col(row, 3), col(row, 4)
		if semi < fedcons || resv < fedcons {
			t.Errorf("U/m=%s: split policy below FEDCONS: fedcons=%.3f semi=%.3f reservation=%.3f",
				row[0], fedcons, semi, resv)
		}
	}
}

// TestE23TypeMixAndVerification runs the typed type-mix sweep at quick scale:
// the Notes must certify zero in-trial verification failures (a failure
// aborts the run), acceptance must actually depend on the platform's type
// mix — some interior split beats both single-type extremes, whose starved
// type leaves part of the fixed demand with nowhere to run — and the phase
// attribution columns must be well-formed percentages.
func TestE23TypeMixAndVerification(t *testing.T) {
	res, err := E23TypedMixSweep(quick())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "0 verification failures") {
			found = true
		}
	}
	if !found {
		t.Errorf("notes do not certify the in-trial verification: %v", res.Notes)
	}
	if len(res.Table.Rows) != 9 {
		t.Fatalf("type-mix sweep has %d rows, want 9 (m_b = 0..8)", len(res.Table.Rows))
	}
	col := func(row []string, k int) float64 {
		v, err := strconv.ParseFloat(row[k], 64)
		if err != nil {
			t.Fatalf("column %d of row %v: %v", k, row, err)
		}
		return v
	}
	var interiorMax float64
	for i, row := range res.Table.Rows {
		if mb := col(row, 0); mb != float64(i) {
			t.Errorf("row %d: m_b = %v, want %d", i, mb, i)
		}
		for _, k := range []int{2, 3} {
			if p := col(row, k); p < 0 || p > 100 {
				t.Errorf("m_b=%s: phase column %d = %v, not a percentage", row[0], k, p)
			}
		}
		if acc := col(row, 1); i > 0 && i < 8 && acc > interiorMax {
			interiorMax = acc
		}
	}
	allA, allB := col(res.Table.Rows[0], 1), col(res.Table.Rows[8], 1)
	if interiorMax <= allA || interiorMax <= allB {
		t.Errorf("acceptance does not peak at an interior type mix: interior max %.3f vs a:8 %.3f, b:8 %.3f",
			interiorMax, allA, allB)
	}
}

func TestSuiteCoversDesignDoc(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Suite() {
		if e.Run == nil || e.ID == "" || e.Name == "" {
			t.Fatalf("incomplete suite entry %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
	}
	for i := 1; i <= 12; i++ {
		id := "E" + itoa(i)
		if !ids[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

func TestE1MatchesPaperExactly(t *testing.T) {
	res, err := E1Example1(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Table.Rows {
		if row[3] != "true" {
			t.Errorf("quantity %s: paper %s vs measured %s", row[0], row[1], row[2])
		}
	}
	assertNoUnexpected(t, res)
}

func TestE2RequiresExactlyNProcessors(t *testing.T) {
	res, err := E2CapacityAugmentation(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertNoUnexpected(t, res)
	// Spot-check the n=8 row: min m must equal 8 for both columns.
	for _, row := range res.Table.Rows {
		if row[0] == "8" {
			if row[3] != "8" || row[4] != "8" {
				t.Errorf("n=8 row = %v, want min m = 8", row)
			}
			return
		}
	}
	t.Error("n=8 row missing")
}

func TestE3NoBoundViolations(t *testing.T) {
	res, err := E3LSMakespanBound(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertNoUnexpected(t, res)
	for _, row := range res.Table.Rows {
		if row[4] != "0" {
			t.Errorf("Graham bound violations in row %v", row)
		}
	}
}

func TestE4CurveShape(t *testing.T) {
	res, err := E4AcceptanceVsUtil(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Table.Rows
	if len(rows) != len(utilGrid) {
		t.Fatalf("%d rows, want %d", len(rows), len(utilGrid))
	}
	// Acceptance at the lightest point must beat the heaviest point.
	first, last := rows[0][3], rows[len(rows)-1][3]
	if first == "0" {
		t.Errorf("acceptance at U/m=0.05 is zero")
	}
	if first == last {
		t.Logf("warning: flat acceptance curve (%s..%s) — small sample?", first, last)
	}
}

func TestE6OrderingHolds(t *testing.T) {
	res, err := E6BaselineComparison(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertNoUnexpected(t, res)
}

func TestE9AnomalyRowsAreConclusive(t *testing.T) {
	res, err := E9Anomaly(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertNoUnexpected(t, res)
	if len(res.Table.Rows) < 5 {
		t.Fatalf("only %d anomaly instances", len(res.Table.Rows))
	}
	for _, row := range res.Table.Rows {
		if row[6] != "MISS" || row[7] != "ok" {
			t.Errorf("row %v: want rerun MISS, replay ok", row)
		}
	}
}

func TestE10ZeroMisses(t *testing.T) {
	res, err := E10SimulationValidation(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertNoUnexpected(t, res)
	for _, row := range res.Table.Rows {
		if row[3] != "0" {
			t.Errorf("misses in row %v", row)
		}
	}
}

func TestE8DominanceHolds(t *testing.T) {
	res, err := E8PartitionAblation(quick())
	if err != nil {
		t.Fatal(err)
	}
	assertNoUnexpected(t, res)
}

func TestAllRunsEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	results, err := All(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Suite()) {
		t.Fatalf("%d results for %d experiments", len(results), len(Suite()))
	}
	for _, res := range results {
		if res.Table == nil || len(res.Table.Rows) == 0 {
			t.Errorf("%s: empty table", res.ID)
		}
		if len(res.Notes) == 0 {
			t.Errorf("%s: no notes", res.ID)
		}
	}
}

func assertNoUnexpected(t *testing.T, res *Result) {
	t.Helper()
	for _, n := range res.Notes {
		if strings.Contains(n, "UNEXPECTED") {
			t.Errorf("%s: %s", res.ID, n)
		}
	}
}
