package listsched

import (
	"testing"

	"fedsched/internal/dag"
)

// TestValidateFirstViolation pins Validate's error text and the order in
// which it reports violations: count, then per job (label, processor range,
// duration, start), then makespan, then overlap (lowest processor first,
// each processor's intervals by start, ties by job), then precedence (edges
// by source vertex, then successor order), then type budgets and blocks.
// Most rows break several rules at once, so only the first may be reported.
func TestValidateFirstViolation(t *testing.T) {
	// Jobs 0..4 with WCETs 2,3,1,2,1 and edges 0→2, 0→3, 1→3, 2→4.
	b := dag.NewBuilder(5)
	for _, c := range []Time{2, 3, 1, 2, 1} {
		b.AddJob(c)
	}
	for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 3}, {2, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	iv := func(job, proc int, start Time) Interval {
		return Interval{Job: job, Proc: proc, Start: start, End: start + g.WCET(job)}
	}
	// valid: P0 runs 0, 2, 4; P1 runs 1, 3.
	valid := func() *Schedule {
		return &Schedule{M: 2, Makespan: 5, Intervals: []Interval{
			iv(0, 0, 0), iv(1, 1, 0), iv(2, 0, 2), iv(3, 1, 3), iv(4, 0, 3),
		}}
	}
	if err := valid().Validate(g); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(s *Schedule)
		want string
	}{
		{"interval count", func(s *Schedule) {
			s.Intervals = s.Intervals[:4]
		}, "listsched: 4 intervals for 5 jobs"},
		{"job label before processor range", func(s *Schedule) {
			s.Intervals[2].Job = 4
			s.Intervals[3].Proc = 9
		}, "listsched: interval 2 records job 4"},
		{"earlier job's duration before later job's range", func(s *Schedule) {
			s.Intervals[0].End = 5
			s.Intervals[1].Proc = 2
		}, "listsched: job 0 runs 5 ticks, WCET 2"},
		{"negative start", func(s *Schedule) {
			s.Intervals[4] = iv(4, 0, -1)
		}, "listsched: job 4 starts at -1"},
		{"makespan before overlap", func(s *Schedule) {
			s.Makespan = 6
			s.Intervals[4] = iv(4, 1, 3)
		}, "listsched: recorded makespan 6, actual 5"},
		{"lowest overlapping processor first", func(s *Schedule) {
			s.Makespan = 4
			s.Intervals[3] = iv(3, 1, 2)
			s.Intervals[2] = iv(2, 0, 1)
		}, "listsched: processor 0 overlap: {0 0 0 2} then {2 0 1 2}"},
		{"overlap by start, not by job", func(s *Schedule) {
			s.Intervals[0] = iv(0, 0, 2)
			s.Intervals[2] = iv(2, 0, 0)
		}, "listsched: processor 0 overlap: {0 0 2 4} then {4 0 3 4}"},
		{"equal starts pair in job order", func(s *Schedule) {
			s.Intervals[2] = iv(2, 0, 0)
		}, "listsched: processor 0 overlap: {0 0 0 2} then {2 0 0 1}"},
		{"first edge by source vertex", func(s *Schedule) {
			s.M, s.Makespan = 3, 4
			s.Intervals[2] = iv(2, 0, 3)
			s.Intervals[4] = iv(4, 0, 2)
			s.Intervals[3] = iv(3, 2, 1)
		}, "listsched: precedence (0→3) violated: succ starts 1 before pred ends 2"},
		{"precedence before type budgets", func(s *Schedule) {
			s.MTypes = []int{1, 0}
			s.Intervals[2] = iv(2, 0, 3)
			s.Intervals[4] = iv(4, 0, 2)
		}, "listsched: precedence (2→4) violated: succ starts 2 before pred ends 4"},
		{"type budget sum", func(s *Schedule) {
			s.MTypes = []int{1, 0}
		}, "listsched: type budgets sum to 1, M=2"},
		{"negative type budget", func(s *Schedule) {
			s.MTypes = []int{3, -1}
		}, "listsched: type 1 has negative budget -1"},
		{"job outside its type block", func(s *Schedule) {
			s.MTypes = []int{1, 1}
		}, "listsched: job 1 requires type 0 but runs on processor 1 (type block [0,1))"},
	}
	for _, c := range cases {
		s := valid()
		c.edit(s)
		err := s.Validate(g)
		if err == nil {
			t.Errorf("%s: Validate accepted the schedule", c.name)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, err, c.want)
		}
	}
}
