package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobspec"
)

// wantAccepted is the submit contract FuzzSubmitJob checks the handler
// against: a body is accepted exactly when it holds one JSON object, and
// nothing else but whitespace, that decodes into a jobspec.Spec without
// unknown fields and validates.
func wantAccepted(body []byte) bool {
	trimmed := bytes.Trim(body, " \t\r\n")
	if len(trimmed) == 0 || trimmed[0] != '{' || !json.Valid(trimmed) {
		return false
	}
	var spec jobspec.Spec
	dec := json.NewDecoder(bytes.NewReader(trimmed))
	dec.DisallowUnknownFields()
	if dec.Decode(&spec) != nil {
		return false
	}
	return spec.Validate() == nil
}

// FuzzSubmitJob sends arbitrary bodies to POST /v1/jobs. The handler must
// not panic. Apart from admission answers (429, 503) it must answer 202
// exactly when wantAccepted holds and 400 otherwise. The test holds the
// server's only running slot, so an accepted job waits in the queue
// until its DELETE ends it and no input runs an exploration.
func FuzzSubmitJob(f *testing.F) {
	for _, body := range []string{
		``, `{}`, ` {"seed":7} `, `null`, `[]`, `"spec"`, `1`,
		`{"buses":[1,2],"alus":[1],"cmps":[1]}`,
		`{"workload":"crc16","search":{"population":8,"generations":2}}`,
		`{"shard":{"shards":2}}`,
		`{"seed":1} junk`, `{"seed":1}{"seed":2}`, `{"seed":1} null`,
		`{"nope":1}`, `{"workload":"doom"}`, `{"buses":[0]}`, `{"search":{"eta":1}}`,
		`{"buses":[1,`, `{"buses":"1,2","width":"16"}`, `{"timeout":"1m30s"}`,
		`{"width":1e400}`, "{\"workload\":\"crc16\"}\n",
		`{"lane_width":256}`, `{"atpg_workers":2}`,
	} {
		f.Add([]byte(body))
	}
	srv := NewServer(Options{MaxConcurrent: 1})
	srv.sem <- struct{}{}
	f.Cleanup(func() {
		<-srv.sem
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		want := wantAccepted(body)
		switch rec.Code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		case http.StatusAccepted:
			if !want {
				t.Errorf("accepted %q", body)
			}
			id := strings.TrimPrefix(rec.Header().Get("Location"), "/v1/jobs/")
			job, ok := srv.Job(id)
			if !ok {
				t.Fatalf("accepted %q without a job (Location %q)", body, rec.Header().Get("Location"))
			}
			del := httptest.NewRecorder()
			h.ServeHTTP(del, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+id, nil))
			if del.Code != http.StatusOK {
				t.Fatalf("DELETE %s: status %d", id, del.Code)
			}
			select {
			case <-job.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("job %s still %s after DELETE", id, job.State())
			}
		case http.StatusBadRequest:
			if want {
				t.Errorf("rejected %q: %s", body, rec.Body.Bytes())
			}
		default:
			t.Errorf("%q: status %d", body, rec.Code)
		}
	})
}
