package checkpoint

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: 0xdeadbeefcafef00d,
		Elapsed:     1234 * time.Millisecond,
		SplitDepth:  5,
		LeavesUsed:  42,
		Stats: Stats{
			StateNodes:    100,
			GateTrials:    2000,
			Leaves:        40,
			Pruned:        17,
			LeafCacheHits: 3,
			BatchSweeps:   9,
			BatchLanes:    300,
			RelaxBounds:   55,
			RelaxPruned:   21,
			PortfolioWins: 2,
		},
		Failures: []WorkerFailure{
			{Worker: 2, Err: "worker panic: boom", Stack: "goroutine 7 [running]:\n..."},
		},
		Incumbent: &Incumbent{
			State:   []bool{true, false, true, true},
			Choices: [][2]int32{{0, 1}, {3, 0}, {2, 2}},
			Leak:    123.456,
			Isub:    78.9,
			Delay:   456.7,
		},
		Frontier: [][]byte{
			{0, 1, 2, 2},
			{1, 1, 2, 2},
		},
		HasMultipliers: true,
		Multipliers: []Multiplier{
			{Gate: 0, State: 1, Lambda: 0.25},
			{Gate: 2, State: 3, Lambda: 17.5},
		},
	}
}

func snapEqual(a, b *Snapshot) bool {
	return reflect.DeepEqual(a, b)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	want := sampleSnapshot()
	if err := Save(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !snapEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v %+v %+v\nwant %+v %+v %+v",
			got, got.Incumbent, got.Frontier, want, want.Incumbent, want.Frontier)
	}
	// Overwrite in place (the periodic-write path) must also work.
	want.LeavesUsed = 99
	want.Frontier = want.Frontier[:1]
	if err := Save(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err = Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LeavesUsed != 99 || len(got.Frontier) != 1 {
		t.Errorf("overwrite not visible: %+v", got)
	}
}

func TestRoundTripNoIncumbentNoFrontier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	want := &Snapshot{Fingerprint: 1, SplitDepth: 0}
	if err := Save(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Incumbent != nil || len(got.Frontier) != 0 || got.Fingerprint != 1 {
		t.Errorf("got %+v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(nil, filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("want os.ErrNotExist, got %v", err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	data := sampleSnapshot().marshal()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(magic)] = 0xff
		if _, err := Unmarshal(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("want ErrVersion, got %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{1, len(magic) + 4, len(data) / 2, len(data) - 1} {
			if _, err := Unmarshal(data[:n]); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Errorf("truncate to %d: want ErrCorrupt, got %v", n, err)
			}
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		// Flip every payload byte in turn: the CRC must catch each one.
		start := len(magic) + 12
		for i := start; i < len(data)-4; i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x01
			if _, err := Unmarshal(bad); err == nil {
				t.Fatalf("bit flip at %d decoded cleanly", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), data...), 0x00)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
}

// marshalV2 serializes a snapshot in the exact version-2 layout (no
// relaxation counters, no multiplier section) so compatibility with files
// written by older builds stays pinned by a test instead of by memory.
func marshalV2(s *Snapshot) []byte {
	full := s.marshal()
	payload := full[len(magic)+12 : len(full)-4]
	// The v3 trailing sections are the last 3*8 (counters) + 1 (flag) +
	// 4 (count) + 16*len(Multipliers) bytes of the payload.
	cut := len(payload) - (24 + 1 + 4 + 16*len(s.Multipliers))
	return reframe(payload[:cut], 2)
}

// reframe wraps an arbitrary payload in a valid frame (magic, version,
// length, CRC), so tests can exercise payload-level decode validation
// separately from the frame checks.
func reframe(payload []byte, version uint32) []byte {
	out := append([]byte(nil), magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// A version-2 snapshot (written before the relaxation engine existed) must
// still load: the new counters decode to zero and no multiplier cache is
// reported, which tells the resuming search to rebuild the engine cold.
func TestLoadVersion2Compat(t *testing.T) {
	want := sampleSnapshot()
	got, err := Unmarshal(marshalV2(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.HasMultipliers || got.Multipliers != nil {
		t.Errorf("v2 decode invented a multiplier cache: %+v", got.Multipliers)
	}
	if got.Stats.RelaxBounds != 0 || got.Stats.RelaxPruned != 0 || got.Stats.PortfolioWins != 0 {
		t.Errorf("v2 decode invented relaxation counters: %+v", got.Stats)
	}
	// Everything that exists in both versions must round-trip unchanged.
	want.HasMultipliers = false
	want.Multipliers = nil
	want.Stats.RelaxBounds = 0
	want.Stats.RelaxPruned = 0
	want.Stats.PortfolioWins = 0
	if !snapEqual(got, want) {
		t.Errorf("v2 decode mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// The version-3 trailing sections must be validated like everything before
// them: a payload cut anywhere inside them — even with a recomputed, valid
// CRC — must fail, as must a multiplier count that promises more entries
// than the payload holds, and v2 files carrying trailing bytes where the
// v3 sections would start.
func TestRejectsCorruptMultiplierSection(t *testing.T) {
	full := sampleSnapshot().marshal()
	payload := full[len(magic)+12 : len(full)-4]
	v3len := 24 + 1 + 4 + 16*len(sampleSnapshot().Multipliers)

	t.Run("truncated trailing sections", func(t *testing.T) {
		for cut := len(payload) - v3len + 1; cut < len(payload); cut++ {
			if _, err := Unmarshal(reframe(payload[:cut], Version)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload cut to %d of %d: want ErrCorrupt, got %v", cut, len(payload), err)
			}
		}
	})
	t.Run("overstated multiplier count", func(t *testing.T) {
		bad := append([]byte(nil), payload...)
		countOff := len(bad) - 4 - 16*len(sampleSnapshot().Multipliers)
		binary.LittleEndian.PutUint32(bad[countOff:], 1<<20)
		if _, err := Unmarshal(reframe(bad, Version)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("v2 frame with trailing bytes", func(t *testing.T) {
		if _, err := Unmarshal(reframe(payload, 2)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
}

// failFS injects failures into individual filesystem operations.
type failFS struct {
	failCreate bool
	failWrite  bool
	failSync   bool
	failRename bool
}

type failFile struct {
	*os.File
	failWrite bool
	failSync  bool
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.failWrite {
		return 0, errors.New("injected write error")
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	if f.failSync {
		return errors.New("injected sync error")
	}
	return f.File.Sync()
}

func (fs *failFS) CreateTemp(dir, pattern string) (File, error) {
	if fs.failCreate {
		return nil, errors.New("injected create error")
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &failFile{File: f, failWrite: fs.failWrite, failSync: fs.failSync}, nil
}

func (fs *failFS) Rename(oldpath, newpath string) error {
	if fs.failRename {
		return errors.New("injected rename error")
	}
	return os.Rename(oldpath, newpath)
}

func (fs *failFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (fs *failFS) Remove(name string) error             { return os.Remove(name) }

// A failed write must never clobber the previous snapshot and must not leak
// temp files.
func TestSaveFailuresAreAtomic(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   *failFS
	}{
		{"create", &failFS{failCreate: true}},
		{"write", &failFS{failWrite: true}},
		{"sync", &failFS{failSync: true}},
		{"rename", &failFS{failRename: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "search.ckpt")
			good := sampleSnapshot()
			if err := Save(nil, path, good); err != nil {
				t.Fatal(err)
			}
			bad := sampleSnapshot()
			bad.LeavesUsed = 7777
			if err := Save(tc.fs, path, bad); err == nil {
				t.Fatal("injected failure did not surface")
			}
			got, err := Load(nil, path)
			if err != nil {
				t.Fatalf("previous snapshot unreadable after failed save: %v", err)
			}
			if got.LeavesUsed != good.LeavesUsed {
				t.Errorf("failed save clobbered the snapshot: LeavesUsed %d", got.LeavesUsed)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Errorf("temp files leaked: %v", entries)
			}
		})
	}
}

// goldenV3 is the version-3 encoding of sampleSnapshot — every counter set
// to a distinct value — as written before the counters were iterated from
// one list.  The list must reproduce it byte for byte.
const goldenV3 = "5356544f434b5054030000001e010000000000000df0fecaefbeadde80588d49" +
	"0000000005000000000000002a000000000000006400000000000000d0070000" +
	"0000000028000000000000001100000000000000030000000000000009000000" +
	"000000002c01000000000000010000000200000012000000776f726b65722070" +
	"616e69633a20626f6f6d1a000000676f726f7574696e652037205b72756e6e69" +
	"6e675d3a0a2e2e2e010400000001000101030000000000000001000000030000" +
	"0000000000020000000200000077be9f1a2fdd5e409a99999999b95340333333" +
	"33338b7c40020000000400000000010202010102023700000000000000150000" +
	"0000000000020000000000000001020000000000000001000000000000000000" +
	"d03f02000000030000000000000000803140b04add7f"

func TestMarshalGoldenV3(t *testing.T) {
	if Version != 3 {
		t.Fatalf("Version = %d, want 3", Version)
	}
	if got := hex.EncodeToString(sampleSnapshot().marshal()); got != goldenV3 {
		t.Fatalf("v3 encoding changed:\n got %s\nwant %s", got, goldenV3)
	}
	want, err := hex.DecodeString(goldenV3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !snapEqual(got, sampleSnapshot()) {
		t.Errorf("golden decode mismatch:\n got %+v\nwant %+v", got, sampleSnapshot())
	}
}

// The list binds every Stats field exactly once, in declaration order, and
// names each by its JSON key; Get, Set and Add go through it.
func TestCountersFollowFieldOrder(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	if v.NumField() != NumCounters {
		t.Fatalf("Stats has %d fields, NumCounters = %d", v.NumField(), NumCounters)
	}
	for i, p := range s.Counters() {
		*p = int64(i + 1)
	}
	for i := 0; i < v.NumField(); i++ {
		if got := v.Field(i).Int(); got != int64(i+1) {
			t.Errorf("field %s holds %d, want counter %d", v.Type().Field(i).Name, got, i+1)
		}
		if tag := v.Type().Field(i).Tag.Get("json"); tag != CounterNames[i]+",omitempty" {
			t.Errorf("field %s: tag %q, name %q", v.Type().Field(i).Name, tag, CounterNames[i])
		}
	}
	var c Stats
	c.Counters().Set(s)
	if c != s || c.Counters().Get() != s {
		t.Errorf("Set/Get round trip: %+v, want %+v", c, s)
	}
	c.Add(s)
	for i, p := range c.Counters() {
		if *p != 2*int64(i+1) {
			t.Errorf("Add: counter %d = %d, want %d", i, *p, 2*(i+1))
		}
	}
}
