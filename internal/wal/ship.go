package wal

// Snapshot shipping: a table's durable state (checkpoint MANIFEST + snapshot
// + live segment tail) serialized into one self-verifying stream, so a warm
// replica can restore it and recover bit-identically to the source.
//
// Archive layout (little-endian):
//
//	magic   "STHSHIP1"
//	frame*  nameLen:u16  name  dataLen:u32  crc:u32  data
//	end     nameLen:u16(=0xFFFF)  files:u32  crc:u32(over files field)
//
// The CRC of a file frame covers name + data, so any corruption — a flipped
// bit in transit, a short read, a reordered chunk — fails verification. The
// end frame carries the file count, so a stream cut between frames (the
// source died mid-ship) is detected as torn rather than accepted short.
//
// RestoreArchive mirrors the checkpoint protocol's commit discipline: data
// files are written and fsynced first, the MANIFEST is written last via
// temp + fsync + rename + dir-fsync. A restore that fails anywhere before
// the rename leaves no MANIFEST, which wal.Open treats as a fresh directory
// — the replica cleanly refuses to serve a torn restore.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"sthist/internal/faultfs"
)

var shipMagic = []byte("STHSHIP1")

const (
	// endFrameName marks the archive trailer in the nameLen field; real
	// names are capped far below it.
	endFrameMark = 0xFFFF
	// maxShipName bounds a file name inside an archive.
	maxShipName = 255
	// MaxShipFileBytes bounds one shipped file. Checkpoint snapshots are
	// histogram JSON (well under a MB at the bucket budgets this repo runs);
	// 1 GiB is a corruption tripwire, not a real limit.
	MaxShipFileBytes = 1 << 30
)

// shipFrame writes one named file frame.
func shipFrame(w io.Writer, name string, data []byte) error {
	if len(name) == 0 || len(name) > maxShipName {
		return fmt.Errorf("wal: ship: bad file name %q", name)
	}
	if len(data) > MaxShipFileBytes {
		return fmt.Errorf("wal: ship: file %q is %d bytes, max %d", name, len(data), MaxShipFileBytes)
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(name)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	crc := crc32.ChecksumIEEE([]byte(name))
	crc = crc32.Update(crc, crc32.IEEETable, data)
	var meta [8]byte
	binary.LittleEndian.PutUint32(meta[0:], uint32(len(data)))
	binary.LittleEndian.PutUint32(meta[4:], crc)
	if _, err := w.Write(meta[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

// shipEnd writes the archive trailer.
func shipEnd(w io.Writer, files int) error {
	var buf [10]byte
	binary.LittleEndian.PutUint16(buf[0:], endFrameMark)
	binary.LittleEndian.PutUint32(buf[2:], uint32(files))
	binary.LittleEndian.PutUint32(buf[6:], crc32.ChecksumIEEE(buf[2:6]))
	_, err := w.Write(buf[:])
	return err
}

// WriteArchive serializes the log's current durable state — a MANIFEST
// consistent with this instant, the live checkpoint snapshot (when one
// exists) and the active segment — into w. It holds the log's lock for the
// duration, so the archive is a consistent cut: no append or checkpoint can
// interleave. Callers that must also freeze the histogram against the WAL
// position (httpapi) hold their own outer lock, as for Append.
func (l *Log) WriteArchive(w io.Writer) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := manifest{Version: 1, Gen: l.gen, Checkpoint: l.snap, WAL: l.seg, LastSeq: l.lastSeq}
	mdata, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wal: ship: encoding manifest: %w", err)
	}
	if _, err := w.Write(shipMagic); err != nil {
		return fmt.Errorf("wal: ship: %w", err)
	}
	files := 1
	if err := shipFrame(w, manifestName, mdata); err != nil {
		return fmt.Errorf("wal: ship: manifest: %w", err)
	}
	if l.snap != "" {
		snap, err := faultfs.ReadFile(l.fs, l.path(l.snap))
		if err != nil {
			return fmt.Errorf("wal: ship: reading checkpoint: %w", err)
		}
		if err := shipFrame(w, l.snap, snap); err != nil {
			return fmt.Errorf("wal: ship: checkpoint: %w", err)
		}
		files++
	}
	seg, err := faultfs.ReadFile(l.fs, l.path(l.seg))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: ship: reading segment: %w", err)
	}
	if err := shipFrame(w, l.seg, seg); err != nil {
		return fmt.Errorf("wal: ship: segment: %w", err)
	}
	files++
	if err := shipEnd(w, files); err != nil {
		return fmt.Errorf("wal: ship: trailer: %w", err)
	}
	return nil
}

// HasState reports whether dir already holds a committed MANIFEST — i.e.
// opening it would recover existing durable state rather than start fresh.
// Warm-start logic uses this to skip snapshot fetching when local state
// exists (RestoreArchive would refuse to clobber it anyway).
func HasState(dir string) bool {
	_, err := os.Stat(dir + string(os.PathSeparator) + manifestName)
	return err == nil
}

// shipArchive is a decoded and fully verified archive.
type shipArchive struct {
	m     manifest
	mdata []byte            // the MANIFEST as shipped, committed verbatim
	files map[string][]byte // every other file, by name
}

// readArchive decodes and fully verifies an archive stream: framing,
// checksums, the trailer's file count, and a manifest that names a segment
// (and checkpoint, if any) the archive carries. Any truncation, checksum
// failure or structural anomaly is an error — a torn ship must never be
// partially believed.
func readArchive(r io.Reader) (*shipArchive, error) {
	magic := make([]byte, len(shipMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("wal: ship: reading magic: %w", err)
	}
	if !bytes.Equal(magic, shipMagic) {
		return nil, fmt.Errorf("wal: ship: bad magic %q", magic)
	}
	a := &shipArchive{files: make(map[string][]byte)}
	count := 0
	for {
		var hdr [2]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, fmt.Errorf("wal: ship: torn stream (missing trailer): %w", err)
		}
		nameLen := binary.LittleEndian.Uint16(hdr[:])
		if nameLen == endFrameMark {
			var end [8]byte
			if _, err := io.ReadFull(r, end[:]); err != nil {
				return nil, fmt.Errorf("wal: ship: torn trailer: %w", err)
			}
			want := binary.LittleEndian.Uint32(end[0:4])
			if crc32.ChecksumIEEE(end[0:4]) != binary.LittleEndian.Uint32(end[4:8]) {
				return nil, fmt.Errorf("wal: ship: trailer checksum mismatch")
			}
			if int(want) != count {
				return nil, fmt.Errorf("wal: ship: trailer names %d files, stream carried %d", want, count)
			}
			if err := a.check(); err != nil {
				return nil, err
			}
			return a, nil
		}
		if nameLen == 0 || nameLen > maxShipName {
			return nil, fmt.Errorf("wal: ship: bad name length %d", nameLen)
		}
		frame := make([]byte, int(nameLen)+8)
		if _, err := io.ReadFull(r, frame); err != nil {
			return nil, fmt.Errorf("wal: ship: torn frame header: %w", err)
		}
		name := string(frame[:nameLen])
		// RestoreArchive stages the manifest under manifestTmp, so a file of
		// that name would be overwritten by the commit.
		if strings.ContainsAny(name, "/\\") || name == "." || name == ".." || name == manifestTmp {
			return nil, fmt.Errorf("wal: ship: unsafe file name %q", name)
		}
		dataLen := binary.LittleEndian.Uint32(frame[nameLen : nameLen+4])
		wantCRC := binary.LittleEndian.Uint32(frame[nameLen+4 : nameLen+8])
		if dataLen > MaxShipFileBytes {
			return nil, fmt.Errorf("wal: ship: file %q claims %d bytes, max %d", name, dataLen, MaxShipFileBytes)
		}
		// The length is the peer's claim: read through a LimitReader so
		// memory grows with the bytes that arrive, not with the claim.
		data, err := io.ReadAll(io.LimitReader(r, int64(dataLen)))
		if err == nil && len(data) < int(dataLen) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("wal: ship: torn file %q: %w", name, err)
		}
		crc := crc32.ChecksumIEEE(frame[:nameLen])
		crc = crc32.Update(crc, crc32.IEEETable, data)
		if crc != wantCRC {
			return nil, fmt.Errorf("wal: ship: checksum mismatch in %q", name)
		}
		count++
		if name == manifestName {
			if a.mdata != nil {
				return nil, fmt.Errorf("wal: ship: duplicate manifest")
			}
			if err := json.Unmarshal(data, &a.m); err != nil {
				return nil, fmt.Errorf("wal: ship: corrupt manifest: %w", err)
			}
			a.mdata = data
			continue
		}
		if _, dup := a.files[name]; dup {
			return nil, fmt.Errorf("wal: ship: duplicate file %q", name)
		}
		a.files[name] = data
	}
}

// check verifies that the manifest names a segment, and a checkpoint if
// any, that the archive carries, and nothing beyond those two.
func (a *shipArchive) check() error {
	if a.mdata == nil {
		return fmt.Errorf("wal: ship: archive has no manifest")
	}
	if a.m.WAL == "" {
		return fmt.Errorf("wal: ship: manifest names no segment")
	}
	if _, ok := a.files[a.m.WAL]; !ok {
		return fmt.Errorf("wal: ship: manifest names segment %q, absent from archive", a.m.WAL)
	}
	if a.m.Checkpoint != "" {
		if _, ok := a.files[a.m.Checkpoint]; !ok {
			return fmt.Errorf("wal: ship: manifest names checkpoint %q, absent from archive", a.m.Checkpoint)
		}
	}
	if len(a.files) > 2 {
		return fmt.Errorf("wal: ship: archive carries %d files beyond the manifest, want at most 2", len(a.files))
	}
	return nil
}

// RestoreArchive verifies the archive in r and materializes it into dir,
// which must not already hold a MANIFEST (a restore never clobbers live
// state). The MANIFEST is committed last, atomically, after every data file
// is durably written — so a failure at any point leaves either a fresh
// directory (no MANIFEST: wal.Open starts empty, the replica refuses to
// claim the state) or the complete state. On success wal.Open on dir
// recovers bit-identically to the source at the instant of WriteArchive.
func RestoreArchive(dir string, opts Options, r io.Reader) error {
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	a, err := readArchive(r)
	if err != nil {
		return err
	}

	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: ship: creating %s: %w", dir, err)
	}
	join := func(name string) string { return dir + string(os.PathSeparator) + name }
	if _, err := fsys.Stat(join(manifestName)); err == nil {
		return fmt.Errorf("wal: ship: %s already holds a manifest; refusing to clobber", dir)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("wal: ship: probing %s: %w", dir, err)
	}

	// Data files first, each durably. Deterministic order: segment, then
	// checkpoint (not map order).
	names := []string{a.m.WAL}
	if a.m.Checkpoint != "" {
		names = append(names, a.m.Checkpoint)
	}
	for _, name := range names {
		if err := writeFileSync(fsys, join(name), a.files[name]); err != nil {
			return fmt.Errorf("wal: ship: writing %q: %w", name, err)
		}
	}
	// Commit point: MANIFEST last, atomically.
	tmp := join(manifestTmp)
	if err := writeFileSync(fsys, tmp, a.mdata); err != nil {
		return fmt.Errorf("wal: ship: writing manifest temp: %w", err)
	}
	if err := fsys.Rename(tmp, join(manifestName)); err != nil {
		return fmt.Errorf("wal: ship: committing manifest: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("wal: ship: syncing %s: %w", dir, err)
	}
	return nil
}

// writeFileSync creates/truncates path with data and fsyncs it.
func writeFileSync(fsys faultfs.FS, path string, data []byte) error {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
