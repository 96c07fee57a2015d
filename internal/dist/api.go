// Package dist distributes an experiment sweep's simulation cells across
// worker processes. The coordinator side plugs into the experiment layer's
// cell cache as its RemoteFunc: every cell the scheduler would have
// simulated locally is instead shipped — full workload specification,
// configuration kind, tweaks and mode — to one of N workers over a small
// HTTP/JSON protocol, and the returned payload is bit-identical to a local
// computation because both sides run the same deterministic engine from
// the same spec. Sharding is by cell-key hash with work stealing: an idle
// worker pulls queued cells from the busiest queue, so a straggler
// workload cannot serialize the sweep.
//
// The wire API follows internal/serve's posture: versioned request and
// response shapes, strict decoding (unknown fields and foreign schema
// versions are rejected), and a structured error envelope on every
// non-2xx response whose Retryable field — surfaced coordinator-side as a
// Transient() error — feeds the experiment scheduler's existing
// retry/backoff machinery.
package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"ignite/internal/experiments"
	"ignite/internal/lukewarm"
	"ignite/internal/sim"
	"ignite/internal/workload"
)

// SchemaVersion is the current version of the dist wire API. Bump on any
// incompatible change; both sides reject any other version.
const SchemaVersion = 1

// HTTP paths of the dist API.
const (
	PathTask   = "/v1/task"
	PathHealth = "/v1/health"
)

// TaskRequest asks a worker to compute one simulation cell. It carries the
// full workload specification rather than a name: the worker rebuilds the
// cell key from the spec and rejects the task if it disagrees with Key, so
// a version-skewed worker (different key schema, different spec fields)
// fails loudly instead of silently computing — and the coordinator then
// caching — the wrong cell.
type TaskRequest struct {
	SchemaVersion int `json:"schemaVersion"`
	// Key is the cell's canonical cache key as the coordinator computed it.
	Key string `json:"key"`
	// Workload is the full function specification (plain exported data;
	// the JSON round trip is exact, floats included, so the worker's
	// recomputed key matches byte for byte).
	Workload workload.Spec `json:"workload"`
	// Config is the front-end configuration kind.
	Config sim.Kind `json:"config"`
	// Tweaks adjusts the configuration. sim.Tweaks is shipped directly —
	// ints, bools and an optional policy pointer — rather than through
	// serve's string-y TweakSpec, so no re-validation can drift.
	Tweaks sim.Tweaks `json:"tweaks"`
	// Mode selects back-to-back or interleaved execution.
	Mode lukewarm.Mode `json:"mode"`
	// Checks enables the runtime invariant verifier on the worker.
	Checks bool `json:"checks,omitempty"`
	// MaxCycles arms the worker-side cycle-budget watchdog (0 = unlimited).
	MaxCycles uint64 `json:"maxCycles,omitempty"`
}

// CellSpec resolves the request into the experiment layer's exported cell
// identity.
func (r TaskRequest) CellSpec() experiments.CellSpec {
	return experiments.CellSpec{Workload: r.Workload, Config: r.Config, Tweaks: r.Tweaks, Mode: r.Mode}
}

// TaskResponse answers one computed cell. Cell is the experiment layer's
// CellPayload JSON, guarded by the IEEE CRC-32 of its raw bytes — the same
// record discipline the content-addressed store uses — so a payload damaged
// anywhere between the worker's encoder and the coordinator's decoder is
// detected, not cached.
type TaskResponse struct {
	SchemaVersion int             `json:"schemaVersion"`
	Key           string          `json:"key"`
	Cached        bool            `json:"cached"`
	CRC           uint32          `json:"crc"`
	Cell          json.RawMessage `json:"cell"`
}

// DecodePayload verifies the response's CRC and decodes the cell payload.
func (r TaskResponse) DecodePayload() (experiments.CellPayload, error) {
	var p experiments.CellPayload
	if crc32.ChecksumIEEE(r.Cell) != r.CRC {
		return p, fmt.Errorf("dist: cell %q: payload CRC mismatch (damaged in transit)", r.Key)
	}
	if err := json.Unmarshal(r.Cell, &p); err != nil {
		return p, fmt.Errorf("dist: cell %q: %w", r.Key, err)
	}
	if p.Res == nil {
		return p, fmt.Errorf("dist: cell %q: payload has no result", r.Key)
	}
	return p, nil
}

// HealthResponse answers /v1/health.
type HealthResponse struct {
	SchemaVersion int    `json:"schemaVersion"`
	Status        string `json:"status"` // "ok" or "draining"
	InFlight      int    `json:"inFlight"`
	TasksDone     uint64 `json:"tasksDone"`
}

// Error codes of the dist v1 API, mapped to HTTP statuses exactly like
// internal/serve's envelope.
const (
	CodeBadRequest        = "bad-request"
	CodeUnsupportedSchema = "unsupported-schema"
	CodeKeyMismatch       = "key-mismatch"
	CodeShuttingDown      = "shutting-down"
	CodeInternal          = "internal"
)

// ErrorEnvelope is the structured error answer of every non-2xx response.
// Retryable tells the coordinator whether another attempt (on this or
// another worker) can succeed; it surfaces as a Transient() error so the
// experiment scheduler's retry machinery applies unchanged.
type ErrorEnvelope struct {
	SchemaVersion int    `json:"schemaVersion"`
	Code          string `json:"code"`
	Message       string `json:"message"`
	Retryable     bool   `json:"retryable"`
}

// Error implements error.
func (e *ErrorEnvelope) Error() string {
	return fmt.Sprintf("dist: %s: %s", e.Code, e.Message)
}

// HTTPStatus maps the envelope's code onto its HTTP status.
func (e *ErrorEnvelope) HTTPStatus() int {
	switch e.Code {
	case CodeBadRequest, CodeUnsupportedSchema, CodeKeyMismatch:
		return 400
	case CodeShuttingDown:
		return 503
	default:
		return 500
	}
}

// envelope builds an error envelope.
func envelope(code, format string, args ...any) *ErrorEnvelope {
	return &ErrorEnvelope{
		SchemaVersion: SchemaVersion,
		Code:          code,
		Message:       fmt.Sprintf(format, args...),
		Retryable:     code == CodeShuttingDown,
	}
}

// ParseTaskRequest decodes and validates a task body. Unknown fields and
// foreign schema versions fail loudly, same as serve's v1 parsing.
func ParseTaskRequest(body []byte) (TaskRequest, *ErrorEnvelope) {
	var req TaskRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, envelope(CodeBadRequest, "malformed task: %v", err)
	}
	if req.SchemaVersion != SchemaVersion {
		return req, envelope(CodeUnsupportedSchema,
			"task schema version %d, this worker speaks %d", req.SchemaVersion, SchemaVersion)
	}
	if req.Key == "" {
		return req, envelope(CodeBadRequest, "missing cell key")
	}
	if req.Workload.Name == "" {
		return req, envelope(CodeBadRequest, "missing workload specification")
	}
	return req, nil
}

// WorkerError reports a failed attempt to run a task on a worker:
// connection failures, shed/shutdown envelopes, damaged payloads. Its
// Transient method feeds faults.IsTransient, so the experiment scheduler
// retries these with its usual capped backoff; permanent envelope errors
// (bad request, key mismatch) are returned bare instead and fail the cell.
type WorkerError struct {
	Worker string // worker address
	Err    error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dist: worker %s: %v", e.Worker, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Transient marks the error retryable (see faults.IsTransient).
func (e *WorkerError) Transient() bool { return true }
