package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReplay throws arbitrary bytes at the segment parser. Replay must never
// panic, must never return more bytes consumed than provided, and every
// record it does return must survive a re-encode/re-decode round trip (i.e.
// only checksum-valid, structurally sound frames are accepted). Because
// replay stops at the first bad frame, the clean prefix is exactly the
// re-encoding of the records it returned. Run with
// `go test -fuzz=FuzzReplay`; the seed corpus below replays in the normal
// test suite.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// A valid two-record segment.
	seed, _ := appendFrame(nil, Record{Seq: 1, Lo: []float64{0, 1}, Hi: []float64{2, 3}, Actual: 7})
	seed, _ = appendFrame(seed, Record{Seq: 2, Lo: []float64{-1}, Hi: []float64{1}, Actual: math.Inf(1)})
	f.Add(seed)
	// The same segment with a flipped payload byte.
	bad := append([]byte(nil), seed...)
	if len(bad) > 12 {
		bad[12] ^= 0x10
	}
	f.Add(bad)
	// A frame header promising more bytes than exist (torn tail).
	torn := make([]byte, 8)
	binary.LittleEndian.PutUint32(torn, 100)
	f.Add(torn)
	// A frame with an absurd length field.
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint32(huge, MaxRecordBytes+7)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, cleanLen, torn := Replay(data)
		if cleanLen < 0 || cleanLen > int64(len(data)) {
			t.Fatalf("cleanLen %d out of [0, %d]", cleanLen, len(data))
		}
		if !torn && cleanLen != int64(len(data)) {
			t.Fatalf("clean replay consumed %d of %d bytes", cleanLen, len(data))
		}
		var prefix []byte
		for _, r := range recs {
			buf, err := appendFrame(nil, r)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %+v: %v", r, err)
			}
			prefix = append(prefix, buf...)
			back, _, tornBack := Replay(buf)
			if tornBack || len(back) != 1 {
				t.Fatalf("re-encoded record does not re-decode: %+v", r)
			}
			if back[0].Seq != r.Seq || len(back[0].Lo) != len(r.Lo) ||
				math.Float64bits(back[0].Actual) != math.Float64bits(r.Actual) {
				t.Fatalf("round trip changed record: %+v -> %+v", r, back[0])
			}
		}
		if !bytes.Equal(prefix, data[:cleanLen]) {
			t.Fatalf("clean prefix of %d bytes is not the re-encoding of its %d records", cleanLen, len(recs))
		}
	})
}

// FuzzReadArchive throws arbitrary bytes at the snapshot-archive decoder,
// which parses what a -warm-from peer sends. It must never panic, and every
// archive it accepts must carry a manifest naming its segment (and
// checkpoint) among the shipped files, restore, and reopen with exactly the
// shipped checkpoint and segment records.
func FuzzReadArchive(f *testing.F) {
	l := buildShipSource(f, f.TempDir())
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{0, len(shipMagic), len(shipMagic) + 5, len(good) / 2, len(good) - 10, len(good) - 1} {
		f.Add(good[:cut])
	}
	f.Add(lyingArchive())
	// A manifest naming RestoreArchive's staging file as its segment: the
	// commit would overwrite that segment with the manifest, so the decoder
	// must refuse the name.
	seg, err := appendFrame(nil, Record{Seq: 1, Lo: []float64{0}, Hi: []float64{1}, Actual: 3})
	if err != nil {
		f.Fatal(err)
	}
	mdata, err := json.Marshal(manifest{Version: 1, Gen: 1, WAL: manifestTmp, LastSeq: 1})
	if err != nil {
		f.Fatal(err)
	}
	staged := bytes.NewBuffer(append([]byte(nil), shipMagic...))
	if err := shipFrame(staged, manifestName, mdata); err != nil {
		f.Fatal(err)
	}
	if err := shipFrame(staged, manifestTmp, seg); err != nil {
		f.Fatal(err)
	}
	if err := shipEnd(staged, 2); err != nil {
		f.Fatal(err)
	}
	f.Add(staged.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := readArchive(bytes.NewReader(data))
		if err != nil {
			return
		}
		seg, ok := a.files[a.m.WAL]
		if a.m.WAL == "" || !ok {
			t.Fatalf("accepted archive without its segment: manifest %+v", a.m)
		}
		snap, ok := a.files[a.m.Checkpoint]
		if a.m.Checkpoint != "" && !ok {
			t.Fatalf("accepted archive without its checkpoint: manifest %+v", a.m)
		}
		dir := filepath.Join(t.TempDir(), "replica")
		if err := RestoreArchive(dir, Options{}, bytes.NewReader(data)); err != nil {
			t.Fatalf("decoded archive does not restore: %v", err)
		}
		l, rc, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("restored archive does not open: %v", err)
		}
		defer l.Close()
		if rc.SnapshotErr != nil || !bytes.Equal(rc.Snapshot, snap) {
			t.Fatalf("restored checkpoint %q (err %v), shipped %q", rc.Snapshot, rc.SnapshotErr, snap)
		}
		if recs, _, _ := Replay(seg); !reflect.DeepEqual(rc.Records, recs) {
			t.Fatalf("restored %d records, shipped segment holds %d", len(rc.Records), len(recs))
		}
	})
}
