package main

// The /v1 error contract: every failure answers the one JSON envelope
//
//	{"code": "<machine-readable>", "message": "<human text>", "details": {...}}
//
// Codes map to statuses:
//
//	invalid_request   400  malformed parameters or body
//	invalid_config    400  typed TRACLUS config validation failure
//	not_found         404  unknown model or job
//	conflict          409  snapshot import raced an in-flight build
//	too_large         413  body, point, or trajectory cap exceeded
//	conflict          409  also: append on a snapshot-loaded model with no
//	                       training geometry (rebuild to append)
//	invalid_snapshot  422  corrupt/truncated/semantically invalid snapshot
//	unsupported_snapshot_version 422  snapshot from a future format version
//	no_dendrogram     422  sweep query a snapshot-restored model cannot
//	                       answer: its snapshot carried no merge structure
//	                       (v1 files, fixed-ε models persisted before their
//	                       first sweep, appended epochs), or the query
//	                       exceeds a restored spatiotemporal model's range
//	geometry_mismatch 422  append data incompatible with the model's
//	                       geometry or build configuration
//	too_many_builds   429  build concurrency cap reached
//	peer_unreachable  502  the owning replica could not be reached
//	timeout           504  classification deadline expired with no results

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"

	"repro/internal/service"
	"repro/internal/snapshot"
	"repro/internal/trackio"

	traclus "repro"
)

const (
	codeInvalidRequest  = "invalid_request"
	codeInvalidConfig   = "invalid_config"
	codeNotFound        = "not_found"
	codeConflict        = "conflict"
	codeTooLarge        = "too_large"
	codeInvalidSnapshot = "invalid_snapshot"
	codeSnapshotVersion = "unsupported_snapshot_version"
	codeNoDendrogram    = "no_dendrogram"
	codeGeometryBad     = "geometry_mismatch"
	codeTooManyBuilds   = "too_many_builds"
	codePeerUnreachable = "peer_unreachable"
	codeTimeout         = "timeout"
)

// apiError is the wire envelope.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Details any    `json:"details,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("traclusd: encoding response: %v", err)
	}
}

func writeErrorCode(w http.ResponseWriter, status int, code, msg string, details any) {
	writeJSON(w, status, apiError{Code: code, Message: msg, Details: details})
}

// writeError is the generic-code shorthand for call sites with a status
// but no richer classification.
func writeError(w http.ResponseWriter, status int, msg string) {
	code := codeInvalidRequest
	switch status {
	case http.StatusNotFound:
		code = codeNotFound
	case http.StatusRequestEntityTooLarge:
		code = codeTooLarge
	case http.StatusTooManyRequests:
		code = codeTooManyBuilds
	case http.StatusGatewayTimeout:
		code = codeTimeout
	}
	writeErrorCode(w, status, code, msg, nil)
}

// writeTypedError maps a typed error from the service, trackio, or
// snapshot layers to its envelope: status, machine code, and structured
// details all derive from the error's type, in one audited place. It also
// maps body-read failures: size-cap hits (byte, point, or trajectory) are
// 413 via their typed errors, everything else (parse errors) 400.
func writeTypedError(w http.ResponseWriter, err error) {
	var cfgErr *traclus.ConfigError
	var limitErr *trackio.LimitError
	var maxErr *http.MaxBytesError
	var corruptErr *snapshot.CorruptError
	var versionErr *snapshot.VersionError
	var invalidErr *snapshot.InvalidError
	switch {
	case errors.As(err, &cfgErr):
		// The offending value is stringified: NaN/±Inf are exactly the
		// values that land here, and encoding/json cannot represent them.
		writeErrorCode(w, http.StatusBadRequest, codeInvalidConfig, err.Error(), map[string]any{
			"field": cfgErr.Field, "value": fmt.Sprint(cfgErr.Value), "reason": cfgErr.Reason,
		})
	case errors.As(err, &limitErr):
		writeErrorCode(w, http.StatusRequestEntityTooLarge, codeTooLarge, err.Error(), map[string]any{
			"what": limitErr.What, "limit": limitErr.Limit,
		})
	case errors.As(err, &maxErr):
		writeErrorCode(w, http.StatusRequestEntityTooLarge, codeTooLarge, err.Error(), map[string]any{
			"what": "bytes", "limit": maxErr.Limit,
		})
	case errors.As(err, &corruptErr):
		writeErrorCode(w, http.StatusUnprocessableEntity, codeInvalidSnapshot, err.Error(), map[string]any{
			"offset": corruptErr.Offset, "reason": corruptErr.Reason,
		})
	case errors.As(err, &versionErr):
		writeErrorCode(w, http.StatusUnprocessableEntity, codeSnapshotVersion, err.Error(), map[string]any{
			"got": versionErr.Got, "supported": versionErr.Supported,
		})
	case errors.As(err, &invalidErr):
		writeErrorCode(w, http.StatusUnprocessableEntity, codeInvalidSnapshot, err.Error(), map[string]any{
			"field": invalidErr.Field, "reason": invalidErr.Reason,
		})
	case errors.Is(err, service.ErrNoDendrogram):
		writeErrorCode(w, http.StatusUnprocessableEntity, codeNoDendrogram, err.Error(), nil)
	case errors.Is(err, service.ErrBuildInFlight):
		writeErrorCode(w, http.StatusConflict, codeConflict, err.Error(), nil)
	case errors.Is(err, service.ErrNotAppendable):
		// The model exists but was restored from a snapshot: its training
		// geometry is gone, so the append conflicts with the model's state
		// rather than being malformed.
		writeErrorCode(w, http.StatusConflict, codeConflict, err.Error(), nil)
	default:
		writeErrorCode(w, http.StatusBadRequest, codeInvalidRequest, err.Error(), nil)
	}
}
