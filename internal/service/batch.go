package service

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"fedsched/internal/obs"
	"fedsched/internal/task"
)

// BatchRequest is the body of POST /v1/admit/batch: a list of tasks admitted
// all-or-nothing.
type BatchRequest struct {
	Tasks []*task.DAGTask `json:"tasks"`
}

// AdmitBatch trial-admits every task in tks atomically: the full two-phase
// FEDCONS test runs once on the current system plus the whole batch, the
// resulting allocation is audited with core.VerifyDelta, and either all
// tasks are installed or none is. A cold analysis fans its Phase-1 MINPROCS
// scans out across the configured worker pool (Config.Options.Par); tasks
// the daemon has analyzed before are served from the content-addressed
// memo. Statuses mirror Admit: 200 installed, 409 rejected (duplicate name
// or analysis failure; the body carries the Verdict for the trial system),
// 429 shed, 504 deadline expired, 500 audit or WAL failure (state
// unchanged).
func (s *Shard) AdmitBatch(ctx context.Context, tks []*task.DAGTask) (int, []byte) {
	return s.AdmitBatchTrace(ctx, tks, s.nextTraceID(), nil)
}

// AdmitBatchTrace is AdmitBatch with an explicit trace ID and an optional
// obs.Recorder for the trial analysis's decision trace (?trace=1).
func (s *Shard) AdmitBatchTrace(ctx context.Context, tks []*task.DAGTask, traceID string, rec *obs.Recorder) (int, []byte) {
	res := s.admitOp(ctx, "admit-batch", tks, traceID, rec, "")
	return res.status, res.body
}

// handleAdmitBatch decodes and validates the batch body; name-collision and
// schedulability checks run in the writer loop against a quiescent state.
func (s *Shard) handleAdmitBatch(w http.ResponseWriter, r *http.Request) {
	s.serveAdmit(w, r, "admit-batch", func() ([]*task.DAGTask, string) {
		tks, err := decodeBatch(io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20)))
		if err != nil {
			return nil, "decoding batch: " + err.Error()
		}
		if len(tks) == 0 {
			return nil, "batch must contain at least one task"
		}
		for i, tk := range tks {
			if tk == nil || tk.Name == "" {
				return nil, fmt.Sprintf("batch task %d must carry a unique name", i)
			}
		}
		return tks, ""
	})
}
