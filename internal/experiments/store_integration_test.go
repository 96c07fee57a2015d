package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"ignite/internal/faults"
	"ignite/internal/lukewarm"
	"ignite/internal/obs"
	"ignite/internal/sim"
	"ignite/internal/store"
)

// storeOpts is chaosOpts plus a persistent store bound behind a fresh
// cache; it returns the stats so tests can assert hit/miss/corruption
// accounting.
func storeOpts(t *testing.T, st *store.Store) (Options, *StoreStats) {
	t.Helper()
	opt := chaosOpts(t)
	opt.Cache = NewCellCache()
	stats := &StoreStats{}
	BindStore(opt.Cache, st, stats)
	return opt, stats
}

// flipBit flips one low bit inside the file's occurrence of needle —
// string content, so the JSON stays well-formed and detection must come
// from checksums, not parse errors.
func flipBit(t *testing.T, path, needle string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(data), needle)
	if i < 0 {
		t.Fatalf("needle %q not found in %s", needle, path)
	}
	data[i+len(needle)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what fn
// wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(r)
		r.Close()
		out <- string(data)
	}()
	saved := os.Stderr
	os.Stderr = w
	func() {
		defer func() {
			os.Stderr = saved
			w.Close()
		}()
		fn()
	}()
	return <-out
}

// TestStoreWarmRerunByteIdentical proves the store round trip at the
// document level: a second run over a sealed store computes nothing and
// still produces a byte-identical document, cache statistics included.
func TestStoreWarmRerunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt1, stats1 := storeOpts(t, st)
	res1, err := Run(context.Background(), "fig1", opt1)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := docBytes(t, res1, opt1)
	if saves := stats1.Saves.Value(); saves != 4 {
		t.Fatalf("cold run persisted %d records, want 4", saves)
	}
	if _, n, err := st.Seal(); err != nil || n != 4 {
		t.Fatalf("seal: n=%d err=%v", n, err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt2, stats2 := storeOpts(t, st2)
	res2, err := Run(context.Background(), "fig1", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := stats2.Hits.Value(), stats2.Misses.Value(); hits != 4 || misses != 0 {
		t.Errorf("warm run: %d hits / %d misses, want 4 / 0", hits, misses)
	}
	if !bytes.Equal(doc1, docBytes(t, res2, opt2)) {
		t.Error("warm-store document differs from the cold run")
	}
}

// TestStoreRecordCorruptionRecomputed flips one bit in one stored cell
// record: the next sweep must detect it, recompute exactly that cell
// (serving the other three warm), repair the record, and land on a
// byte-identical document.
func TestStoreRecordCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt1, _ := storeOpts(t, st)
	res1, err := Run(context.Background(), "fig1", opt1)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := docBytes(t, res1, opt1)
	if _, _, err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	victim := CellSpec{
		Workload: opt1.Workloads[0],
		Config:   sim.KindNL,
		Mode:     lukewarm.BackToBack,
	}
	flipBit(t, st.RecordPath(victim.Key()), "component")

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt2, stats2 := storeOpts(t, st2)
	res2, err := Run(context.Background(), "fig1", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt := stats2.Corrupt.Value(); corrupt != 1 {
		t.Errorf("corruption detections = %d, want 1", corrupt)
	}
	if hits, misses := stats2.Hits.Value(), stats2.Misses.Value(); hits != 3 || misses != 1 {
		t.Errorf("damaged-store run: %d hits / %d misses, want 3 / 1 (only the flipped cell recomputes)", hits, misses)
	}
	if !bytes.Equal(doc1, docBytes(t, res2, opt2)) {
		t.Error("document after record corruption differs from the clean run")
	}
	// The recompute's save repaired the record in place.
	if _, err := st2.Get(victim.Key()); err != nil {
		t.Errorf("record not repaired after recompute: %v", err)
	}
}

// TestStoreManifestCorruptionRecomputed flips one bit in the Merkle
// manifest: with the sealed set's integrity unknown, the sweep must trust
// nothing — every cell recomputes — and still produce a byte-identical
// document; resealing restores warm service.
func TestStoreManifestCorruptionRecomputed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt1, _ := storeOpts(t, st)
	res1, err := Run(context.Background(), "fig1", opt1)
	if err != nil {
		t.Fatal(err)
	}
	doc1 := docBytes(t, res1, opt1)
	if _, _, err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	anyKey := CellSpec{
		Workload: opt1.Workloads[0],
		Config:   sim.KindNL,
		Mode:     lukewarm.BackToBack,
	}.Key()
	flipBit(t, st.ManifestPath(), store.KeyHash(anyKey))

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ManifestErr() == nil {
		t.Fatal("corrupt manifest not detected at open")
	}
	opt2, stats2 := storeOpts(t, st2)
	var res2 *Result
	warnings := captureStderr(t, func() {
		res2, err = Run(context.Background(), "fig1", opt2)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every Get fails with the same manifest error; it is reported once,
	// not once per cell, while every recompute is still counted.
	if n := strings.Count(warnings, "store: corruption detected"); n != 1 {
		t.Errorf("corrupt manifest warned %d times, want once:\n%s", n, warnings)
	}
	if hits := stats2.Hits.Value(); hits != 0 {
		t.Errorf("%d records served under a corrupt manifest, want 0", hits)
	}
	if corrupt := stats2.Corrupt.Value(); corrupt != 4 {
		t.Errorf("corruption detections = %d, want 4 (one per recomputed cell)", corrupt)
	}
	if !bytes.Equal(doc1, docBytes(t, res2, opt2)) {
		t.Error("document after manifest corruption differs from the clean run")
	}

	// Reseal over the (repaired, byte-identical) records, then a warm run.
	if _, n, err := st2.Seal(); err != nil || n != 4 {
		t.Fatalf("reseal: n=%d err=%v", n, err)
	}
	st3, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt3, stats3 := storeOpts(t, st3)
	if _, err := Run(context.Background(), "fig1", opt3); err != nil {
		t.Fatal(err)
	}
	if hits := stats3.Hits.Value(); hits != 4 {
		t.Errorf("post-reseal run served %d warm records, want 4", hits)
	}
}

// cancelAfterCells cancels a run once n cells have reported CellDone.
type cancelAfterCells struct {
	obs.BaseTracer
	n      int64
	done   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfterCells) CellDone(obs.CellDoneEvent) {
	if c.done.Add(1) == c.n {
		c.cancel()
	}
}

// TestStoreResumesInterruptedRun is the crash-safe resume contract: a fig1
// sweep interrupted while one cell is still simulating leaves every
// finished cell in the store, and rerunning the same sweep over that store
// serves exactly those cells, recomputes only the unfinished one, and
// lands on a document byte-identical to an uninterrupted run.
func TestStoreResumesInterruptedRun(t *testing.T) {
	clean := chaosOpts(t)
	clean.Cache = NewCellCache()
	cleanRes, err := Run(context.Background(), "fig1", clean)
	if err != nil {
		t.Fatal(err)
	}
	want := docBytes(t, cleanRes, clean)

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt1, stats1 := storeOpts(t, st)
	stuck := opt1.Workloads[0]
	plan, err := faults.Parse("slow@fig1/" + stuck.Name + "/interleaved:delay=60s")
	if err != nil {
		t.Fatal(err)
	}
	opt1.Faults = plan
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt1.Tracer = &cancelAfterCells{n: 3, cancel: cancel}
	if _, err := Run(ctx, "fig1", opt1); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run = %v, want context.Canceled", err)
	}
	if saves := stats1.Saves.Value(); saves != 3 {
		t.Fatalf("interrupted run persisted %d records, want the 3 finished cells", saves)
	}
	stuckKey := CellSpec{Workload: stuck, Config: sim.KindNL, Mode: lukewarm.Interleaved}.Key()
	if _, err := st.Get(stuckKey); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("unfinished cell has a record: %v", err)
	}

	// The interrupted process never sealed: the rerun reopens the store
	// as a restarted process would, with a fresh cache and no faults.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt2, stats2 := storeOpts(t, st2)
	res2, err := Run(context.Background(), "fig1", opt2)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := stats2.Hits.Value(), stats2.Misses.Value(); hits != 3 || misses != 1 {
		t.Errorf("resumed run: %d hits / %d misses, want 3 / 1 (only the unfinished cell recomputes)", hits, misses)
	}
	if corrupt := stats2.Corrupt.Value(); corrupt != 0 {
		t.Errorf("resumed run detected %d corruption(s), want 0", corrupt)
	}
	if !bytes.Equal(want, docBytes(t, res2, opt2)) {
		t.Error("resumed document differs from an uninterrupted run")
	}
}

// TestStoreForeignScaleServesNothing: a store filled at one TargetInstr
// serves nothing to a sweep at another, because every cell key embeds the
// full workload spec. The sweep recomputes everything and matches a fresh
// run at its own scale.
func TestStoreForeignScaleServesNothing(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	optA, _ := storeOpts(t, st)
	if _, err := Run(context.Background(), "fig1", optA); err != nil {
		t.Fatal(err)
	}

	rescale := func(opt *Options) {
		for i := range opt.Workloads {
			opt.Workloads[i].TargetInstr /= 2
		}
	}
	fresh := chaosOpts(t)
	rescale(&fresh)
	fresh.Cache = NewCellCache()
	freshRes, err := Run(context.Background(), "fig1", fresh)
	if err != nil {
		t.Fatal(err)
	}

	optB, statsB := storeOpts(t, st)
	rescale(&optB)
	resB, err := Run(context.Background(), "fig1", optB)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := statsB.Hits.Value(), statsB.Misses.Value(); hits != 0 || misses != 4 {
		t.Errorf("foreign-scale run: %d hits / %d misses, want 0 / 4", hits, misses)
	}
	if !bytes.Equal(docBytes(t, freshRes, fresh), docBytes(t, resB, optB)) {
		t.Error("foreign-scale store run differs from a fresh run at that scale")
	}
}
