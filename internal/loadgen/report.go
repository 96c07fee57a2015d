package loadgen

import (
	"encoding/json"
	"fmt"
	"time"
)

// SchemaVersion versions the load-report document.
const SchemaVersion = 1

// ReportKind identifies load-report documents.
const ReportKind = "ignite.load-report"

// Report is the versioned result document of one load run — what
// cmd/ignite-load writes and CI asserts on.
type Report struct {
	SchemaVersion int    `json:"schemaVersion"`
	Kind          string `json:"kind"`

	// Target describes the request under load.
	Function string `json:"function"`
	Config   string `json:"config"`
	Mode     string `json:"mode"`

	// Offered load.
	Process     string  `json:"process"`
	TargetRPS   float64 `json:"targetRPS"`
	DurationSec float64 `json:"durationSec"`
	Seed        uint64  `json:"seed"`

	// Outcome.
	Scheduled   uint64            `json:"scheduled"`
	Sent        uint64            `json:"sent"`
	OK          uint64            `json:"ok"`
	Errors      uint64            `json:"errors"`
	Retries     uint64            `json:"retries,omitempty"`
	StatusCount map[string]uint64 `json:"statusCount,omitempty"`
	AchievedRPS float64           `json:"achievedRPS"`

	// Latency percentiles, measured from each request's scheduled arrival
	// time (not its actual send time), so generator lateness counts
	// against the server the way client queueing would in production.
	Latency LatencySummary `json:"latency"`

	// ServerSide carries the /metrics deltas scraped around the run
	// (zero-valued when the scrape was skipped).
	ServerSide ServerSide `json:"serverSide"`
}

// LatencySummary is the percentile table in milliseconds.
type LatencySummary struct {
	MinMs  float64 `json:"minMs"`
	P50Ms  float64 `json:"p50Ms"`
	P99Ms  float64 `json:"p99Ms"`
	P999Ms float64 `json:"p999Ms"`
	MaxMs  float64 `json:"maxMs"`
}

// SummaryFrom converts a sketch reading into the wire form.
func SummaryFrom(s *Sketch) LatencySummary {
	min, p50, p99, p999, max := s.Summary()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{MinMs: ms(min), P50Ms: ms(p50), P99Ms: ms(p99), P999Ms: ms(p999), MaxMs: ms(max)}
}

// ServerSide is the server's own view of the run: the serve.* metric deltas
// between the pre-run and post-run /metrics scrapes. BatchedRequests counts
// requests admitted through the server's gate (serve.batched_requests),
// Batches the distinct cell computations they needed (serve.batches).
// CoalescingRatio is their quotient — >1 means concurrent requests shared
// cell computations.
type ServerSide struct {
	Requests        float64 `json:"requests"`
	FastPathHits    float64 `json:"fastPathHits"`
	Batches         float64 `json:"batches"`
	BatchedRequests float64 `json:"batchedRequests"`
	CoalescingRatio float64 `json:"coalescingRatio"`
	Shed            float64 `json:"shed"`
}

// Encode renders the report as stable, indented JSON, stamping version and
// kind.
func (r Report) Encode() ([]byte, error) {
	r.SchemaVersion = SchemaVersion
	r.Kind = ReportKind
	return json.MarshalIndent(r, "", "  ")
}

// DecodeReport parses a load report, rejecting unknown schema versions and
// kinds — the same strictness obs.DecodeDocument applies to result
// documents.
func DecodeReport(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("loadgen: decode report: %w", err)
	}
	if r.SchemaVersion != SchemaVersion {
		return r, fmt.Errorf("loadgen: report schema version %d, this build reads %d",
			r.SchemaVersion, SchemaVersion)
	}
	if r.Kind != ReportKind {
		return r, fmt.Errorf("loadgen: unexpected report kind %q", r.Kind)
	}
	return r, nil
}
