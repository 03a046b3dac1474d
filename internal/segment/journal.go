// The commit journal: an append-only log of CRC-framed JSON records. Each
// line is "<crc32c-hex8> <json>\n"; the checksum covers the JSON bytes, so a
// torn append (crash mid-write) is detected as a bad tail line rather than
// silently parsed. The journal is the store's commit point: a record is
// committed once its line is written AND fsynced.

package segment

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/jsonwire"
)

// journalRecord is one journal line. Kind selects which fields are set:
//
//	"header"  — first line of every journal: format + fingerprint
//	"delta"   — an inline checkpoint delta (small deltas skip the file)
//	"segment" — a commit of an immutable segment file, by name + SHA-256
type journalRecord struct {
	Kind string `json:"kind"`
	// header fields
	Format      int          `json:"format,omitempty"`
	Fingerprint *Fingerprint `json:"fingerprint,omitempty"`
	// commit fields
	Seq   uint64 `json:"seq,omitempty"`
	Delta *Delta `json:"delta,omitempty"`
	// segment-commit fields
	File   string `json:"file,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
	Deltas int    `json:"deltas,omitempty"` // delta count inside the file
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord frames one journal line: crc32c of the JSON payload, a
// space, the payload (codec.go), a newline.
func encodeRecord(rec *journalRecord) ([]byte, error) {
	e := getEncoder()
	e.Buf = append(e.Buf, "00000000 "...)
	e.record(rec)
	line, err := e.result(1)
	if err != nil {
		return nil, err
	}
	crc := crc32.Checksum(line[9:], crcTable)
	for i := 7; i >= 0; i-- {
		line[i] = jsonwire.HexDigits[crc&0xF]
		crc >>= 4
	}
	return append(line, '\n'), nil
}

// decodeLine parses one framed journal line (without its trailing newline).
func decodeLine(line []byte) (*journalRecord, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("segment: journal line too short or unframed")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("segment: journal line checksum field: %w", err)
	}
	body := line[9:]
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("segment: journal line checksum mismatch (%08x != %08x)", got, want)
	}
	var rec journalRecord
	if err := decode(body, func(d *decoder) { d.record(&rec) }); err != nil {
		return nil, fmt.Errorf("segment: journal line decode: %w", err)
	}
	return &rec, nil
}

// scanJournal reads every valid record from the head of the journal file.
// It stops at the first invalid line — a torn tail from a crash mid-append —
// and reports how many bytes of valid prefix precede it and whether a torn
// tail was found. A final line without a newline is torn by definition (the
// append did not complete).
func scanJournal(path string) (recs []*journalRecord, validBytes int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			// EOF with a partial (newline-less) line is a torn append;
			// clean EOF ends the scan.
			return recs, validBytes, len(line) > 0, nil
		}
		rec, derr := decodeLine(bytes.TrimSuffix(line, []byte("\n")))
		if derr != nil {
			return recs, validBytes, true, nil
		}
		recs = append(recs, rec)
		validBytes += int64(len(line))
	}
}
