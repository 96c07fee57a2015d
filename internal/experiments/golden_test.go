package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ignite/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenDocument runs one experiment on the quick workload set at the given
// scheduler width and encodes it with every environment-dependent manifest
// field cleared, so the bytes depend only on the simulation (which the
// determinism tests pin bit-exactly) and on the document schema itself. The
// manifest always records Parallel=1: the width is part of the manifest, and
// pinning it lets one fixture check that a wider pool yields the same bytes.
func goldenDocument(t *testing.T, id ID, parallel int) []byte {
	t.Helper()
	opt := quickOpts(t)
	opt.Parallel = parallel
	res, err := Run(context.Background(), id, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Parallel = 1
	man := opt.Manifest()
	man.GoVersion = "" // toolchain-dependent; omitted from the fixture
	data, err := res.Document(man).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func goldenFig1Document(t *testing.T) []byte { return goldenDocument(t, "fig1", 1) }

// checkGolden compares got against the fixture at path, or rewrites the
// fixture under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(got, want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("document differs from %s at line %d:\n got: %s\nwant: %s\n(rerun with -update if the change is intentional)",
					path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("document differs from %s in length: got %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}

// TestGoldenFig1Document locks the exported JSON document byte-for-byte.
// A diff here means either the simulation changed (rerun with -update after
// checking the determinism tests) or the document schema changed shape — in
// which case obs.SchemaVersion must be bumped alongside regenerating the
// fixture.
func TestGoldenFig1Document(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "fig1.golden.json"), goldenFig1Document(t))
}

// TestGoldenAblationDocuments locks the ablation studies' documents
// byte-for-byte, serially and on a wide scheduler pool. The fixtures were
// recorded from serial per-workload loops that built each program and ran
// each NL baseline afresh, so they also pin the scheduler, the side cache
// and trace sharing to those results.
func TestGoldenAblationDocuments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four ablation studies twice")
	}
	for _, id := range []ID{"abl-codec", "abl-throttle", "abl-btb", "abl-metadata"} {
		for _, parallel := range []int{1, 8} {
			if *updateGolden && parallel != 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/parallel=%d", id, parallel), func(t *testing.T) {
				checkGolden(t, filepath.Join("testdata", string(id)+".golden.json"), goldenDocument(t, id, parallel))
			})
		}
	}
}

// TestGoldenSchemaVersion asserts the committed fixture carries the schema
// version this build writes, so bumping obs.SchemaVersion without
// regenerating the golden file fails with a direct message rather than a
// byte diff.
func TestGoldenSchemaVersion(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "fig1.golden.json"))
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	var probe struct {
		SchemaVersion int `json:"schemaVersion"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.SchemaVersion != obs.SchemaVersion {
		t.Fatalf("golden fixture has schemaVersion %d but this build writes %d: regenerate with -update",
			probe.SchemaVersion, obs.SchemaVersion)
	}
}

// TestDocumentRoundTrip decodes the exported document and re-encodes it,
// asserting the bytes survive unchanged — no field is dropped, renamed, or
// reordered by the decode path.
func TestDocumentRoundTrip(t *testing.T) {
	data := goldenFig1Document(t)
	doc, err := obs.DecodeDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	again, err := doc.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("document does not round-trip byte-identically through DecodeDocument + Encode")
	}
	if doc.ID != "fig1" || len(doc.Cells) == 0 || len(doc.Values) == 0 {
		t.Fatalf("round-tripped document lost content: id=%q cells=%d values=%d",
			doc.ID, len(doc.Cells), len(doc.Values))
	}
}

// TestAllExperimentsExportDocuments runs every registered experiment on the
// quick workload set through one shared cell cache and round-trips each
// result through the exported file format — the programmatic version of
// `ignite-bench -exp all -out dir/`.
func TestAllExperimentsExportDocuments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	opt := quickOpts(t)
	opt.Cache = NewCellCache()
	results, err := RunAll(context.Background(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("RunAll returned %d results, want %d", len(results), len(IDs()))
	}
	dir := t.TempDir()
	man := opt.Manifest()
	for _, res := range results {
		if res.ID == "" {
			t.Fatalf("experiment %q has an empty ID", res.Title)
		}
		path, err := res.Document(man).WriteFile(dir, string(res.ID))
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		doc, err := obs.DecodeDocument(data)
		if err != nil {
			t.Fatalf("%s: %v", res.ID, err)
		}
		if doc.ID != string(res.ID) || doc.SchemaVersion != obs.SchemaVersion {
			t.Fatalf("%s: document id=%q schema=%d", res.ID, doc.ID, doc.SchemaVersion)
		}
		// tab2 is a pure configuration listing; everything else carries
		// figure values.
		if len(doc.Values) == 0 && len(doc.Tables) == 0 {
			t.Errorf("%s: document has neither values nor tables", res.ID)
		}
	}
}

// TestDecodeRejectsForeignDocuments asserts DecodeDocument fails loudly on
// documents written by a different schema generation or of a different kind.
func TestDecodeRejectsForeignDocuments(t *testing.T) {
	data := goldenFig1Document(t)

	bumped := bytes.Replace(data,
		[]byte(`"schemaVersion": 1`), []byte(`"schemaVersion": 999`), 1)
	if bytes.Equal(bumped, data) {
		t.Fatal("fixture did not contain the schemaVersion field to mutate")
	}
	if _, err := obs.DecodeDocument(bumped); err == nil {
		t.Error("DecodeDocument accepted schema version 999")
	} else if !strings.Contains(err.Error(), "schema version") {
		t.Errorf("unhelpful schema-version error: %v", err)
	}

	alien := bytes.Replace(data,
		[]byte(obs.DocumentKind), []byte("some.other-document"), 1)
	if _, err := obs.DecodeDocument(alien); err == nil {
		t.Error("DecodeDocument accepted a foreign document kind")
	}
}
