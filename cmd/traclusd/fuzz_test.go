package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/synth"

	traclus "repro"
)

// FuzzV1Requests feeds fuzz-chosen bodies to the two /v1 JSON request
// decoders — POST /v1/models (BuildRequest) and POST
// /v1/models/{name}/append (AppendRequest) — through the daemon's own
// ServeHTTP. A stub builder stands in for the clustering, and one small
// resident model takes the appends. Whatever the body, the daemon must not
// panic, every non-2xx answer must be the {"code","message","details"}
// envelope with a code from api.go's list, and a 4xx must start no job.
func FuzzV1Requests(f *testing.F) {
	_, csv := trainingCSV(f)
	for _, tc := range buildValidationCases(csv) {
		f.Add([]byte(tc.body))
	}
	small := synth.CorridorScene(2, 4, 10, 4, 11)
	f.Add([]byte(`{"name":"m","data":` + mustJSONString(csvOf(f, small...)) + `,"config":{"eps":30,"min_lns":3}}`))
	f.Add([]byte(`{"data":` + mustJSONString(csvOf(f, appendTracks()[:2]...)) + `}`))

	s, err := newServer(serverConfig{
		workers: 1,
		maxBody: 1 << 16,
		buildModel: func(context.Context, string, []traclus.Trajectory, traclus.Config, *service.EstimateRange, func(string, float64)) (*service.Model, error) {
			return nil, errors.New("stub builder")
		},
	})
	if err != nil {
		f.Fatal(err)
	}
	// resident (re)installs the model appends grow, so a successful append
	// does not carry its growth into the next input.
	resident := func(tb testing.TB) {
		m, err := service.BuildCtx(context.Background(), "resident", small, traclus.Config{Eps: 30, MinLns: 3}, nil, nil)
		if err == nil {
			err = s.store.Put("resident", m)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	resident(f)
	codes := []string{
		codeInvalidRequest, codeInvalidConfig, codeNotFound, codeConflict, codeTooLarge,
		codeInvalidSnapshot, codeSnapshotVersion, codeNoDendrogram, codeGeometryBad,
		codeTooManyBuilds, codePeerUnreachable, codeTimeout,
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, path := range []string{"/v1/models", "/v1/models/resident/append"} {
			jobs := s.jobs.Len()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch {
			case rec.Code == http.StatusAccepted:
				var job service.Job
				if err := json.Unmarshal(rec.Body.Bytes(), &job); err != nil {
					t.Fatalf("%s: 202 body %q: %v", path, rec.Body, err)
				}
				awaitStubJob(t, s, job.ID)
			case rec.Code < 300:
				if path != "/v1/models" {
					resident(t)
				}
			default:
				var e struct {
					Code    string          `json:"code"`
					Message string          `json:"message"`
					Details json.RawMessage `json:"details"`
				}
				dec := json.NewDecoder(rec.Body)
				dec.DisallowUnknownFields()
				if err := dec.Decode(&e); err != nil || !slices.Contains(codes, e.Code) || e.Message == "" {
					t.Fatalf("%s: %d answer is not the envelope (code %q, decode error %v)", path, rec.Code, e.Code, err)
				}
				if rec.Code < 500 && s.jobs.Len() != jobs {
					t.Fatalf("%s: %d %s started a job", path, rec.Code, e.Code)
				}
			}
		}
	})
}

// awaitStubJob waits until the stub build of job id has finished, so the
// next input's job count is not moved by this one's completion.
func awaitStubJob(t *testing.T, s *server, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		job, ok := s.jobs.Get(id)
		if !ok {
			t.Fatalf("job %s is not registered", id)
		}
		if job.State != service.JobRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stub job %s never finished", id)
		}
		time.Sleep(time.Millisecond)
	}
}
