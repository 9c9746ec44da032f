package main

// Snapshot export/import: GET hands out the model's versioned binary
// snapshot (the same bytes the disk store persists), PUT rebuilds a model
// from uploaded snapshot bytes and installs it — the transfer format for
// backups, warm standbys, and peer replicas. Decode failures are typed:
// corrupt, truncated, or future-version snapshots answer 422, never crash
// the daemon.

import (
	"net/http"
	"strconv"

	"repro/internal/service"
	"repro/internal/snapshot"
)

// snapshotContentType is the media type of the binary snapshot encoding;
// the version parameter is the codec's format version, not the model's.
var snapshotContentType = "application/vnd.traclus.snapshot; version=" + strconv.Itoa(snapshot.Version)

// handleSnapshotGet is GET /v1/models/{name}/snapshot: export the model.
// On a non-owner replica a local miss fetches from the owner first, so the
// endpoint is also how peers replicate finished models.
func (s *server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	m, found, err := s.localModel(r, name)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if !found {
		writeErrorCode(w, http.StatusNotFound, codeNotFound, "model not found", nil)
		return
	}
	data, err := m.EncodeSnapshot()
	if err != nil {
		writeTypedError(w, err)
		return
	}
	w.Header().Set("Content-Type", snapshotContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleSnapshotPut is PUT /v1/models/{name}/snapshot: import a snapshot
// under the path's name (the name inside the snapshot travels along as
// metadata but the path decides identity, so an exported model can be
// installed under a new name). The model is persisted synchronously before
// the 200 — an import survives an immediate crash. An import racing an
// in-flight build of the same name answers 409.
func (s *server) handleSnapshotPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := s.readRaw(w, r)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	sm, err := snapshot.Decode(data)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	sm.Name = name // path-addressed identity
	m, err := service.FromSnapshot(sm)
	if err != nil {
		writeTypedError(w, err)
		return
	}
	if err := s.store.Put(name, m); err != nil {
		writeTypedError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":    name,
		"imported": true,
		"clusters": m.Summary().Clusters,
	})
}
