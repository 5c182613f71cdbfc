package device

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The subprocess wire: length-prefixed binary frames over the worker's
// stdin (requests) and stdout (replies), little-endian throughout.
//
// Request header, reqHeaderLen bytes:
//
//	off size field
//	  0    4 reqMagic
//	  4    1 op
//	  5    1 nargs        Exec: Arg records after the name
//	  6    2 nameLen      Exec: kernel name; Alloc: element type name
//	  8    8 buf          Alloc/MapTo/MapFrom/Free: buffer id
//	 16    8 n            Alloc: element count (-1: one boxed value);
//	                      MapTo/Init: payload bytes
//	 24    8 numTeams     Exec
//	 32    8 threadLimit  Exec
//
// followed by nameLen name bytes, nargs records of (ptr u64, nameLen u16,
// name), and — MapTo and Init only — n payload bytes: the raw memory of
// the mapped object, or the JSON of the ICV set.
//
// Reply header, replyHeaderLen bytes: replyMagic u32, status u8, three
// zero bytes, n u64; then n bytes — the buffer's raw memory (MapFrom), the
// hello magic (handshake) or the error text (status != statusOK).
const (
	reqMagic       = uint32(0x71504d47) // "GMPq"
	replyMagic     = uint32(0x72504d47) // "GMPr"
	reqHeaderLen   = 40
	replyHeaderLen = 16

	// Caps on the variable-length parts a frame sizes itself, checked
	// before anything is allocated for them. Payloads have no cap of their
	// own: a payload is read into the buffer it targets, and its length
	// must equal that buffer's.
	maxNameLen   = 512
	maxInitBytes = 64 << 10
	maxErrBytes  = 64 << 10
)

// Ops. Exec, MapFrom, Sync and Init are waited: the host flushes and reads
// one reply. Alloc, MapTo and Free are posted: no reply; a failure is
// latched by the worker and fails the next waited op instead.
const (
	opInit    = byte(iota + 1) // payload: ICVs → build the worker's runtime
	opAlloc                    // buf, name, n → new zeroed buffer
	opMapTo                    // buf, payload → overwrite buffer contents
	opMapFrom                  // buf → reply with buffer contents
	opFree                     // buf → drop the buffer
	opExec                     // name, launch, args → run kernel
	opSync                     // round-trip barrier
	opLast    = opSync
)

var opNames = [...]string{"?", "init", "alloc", "map-to", "map-from", "free", "exec", "sync"}

func opName(op byte) string {
	if op == 0 || op > opLast {
		return fmt.Sprintf("op %d", op)
	}
	return opNames[op]
}

// Reply statuses.
const (
	statusOK     = byte(iota)
	statusErr    // the waited op itself failed
	statusPosted // an earlier posted op failed; the waited op did not run
	statusLast   = statusPosted
)

// request is a decoded request frame, less its payload.
type request struct {
	op   byte
	buf  uint64
	n    int64
	name string
	cfg  Launch
	args []Arg
}

// appendRequest encodes req onto dst. Name lengths and the arg count are
// the caller's to check against maxNameLen and 255.
func appendRequest(dst []byte, req *request) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, reqMagic)
	dst = append(dst, req.op, byte(len(req.args)))
	dst = le.AppendUint16(dst, uint16(len(req.name)))
	dst = le.AppendUint64(dst, req.buf)
	dst = le.AppendUint64(dst, uint64(req.n))
	dst = le.AppendUint64(dst, uint64(int64(req.cfg.NumTeams)))
	dst = le.AppendUint64(dst, uint64(int64(req.cfg.ThreadLimit)))
	dst = append(dst, req.name...)
	for _, a := range req.args {
		dst = le.AppendUint64(dst, uint64(a.Ptr))
		dst = le.AppendUint16(dst, uint16(len(a.Name)))
		dst = append(dst, a.Name...)
	}
	return dst
}

// readRequest decodes one request frame up to its payload. io.EOF means the
// stream ended cleanly between frames; every other error means the stream
// can no longer be trusted.
func readRequest(r *bufio.Reader) (request, error) {
	var hdr [reqHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return request{}, err // io.EOF only when no byte of a frame arrived
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:]); m != reqMagic {
		return request{}, fmt.Errorf("bad request magic %#x", m)
	}
	req := request{
		op:  hdr[4],
		buf: le.Uint64(hdr[8:]),
		n:   int64(le.Uint64(hdr[16:])),
		cfg: Launch{NumTeams: int(int64(le.Uint64(hdr[24:]))), ThreadLimit: int(int64(le.Uint64(hdr[32:])))},
	}
	if req.op == 0 || req.op > opLast {
		return request{}, fmt.Errorf("unknown op %d", req.op)
	}
	var err error
	if req.name, err = readName(r, le.Uint16(hdr[6:])); err != nil {
		return request{}, err
	}
	if nargs := int(hdr[5]); nargs > 0 {
		req.args = make([]Arg, nargs)
		for i := range req.args {
			var rec [10]byte
			if _, err := io.ReadFull(r, rec[:]); err != nil {
				return request{}, truncated(err)
			}
			req.args[i].Ptr = Ptr(le.Uint64(rec[0:]))
			if req.args[i].Name, err = readName(r, le.Uint16(rec[8:])); err != nil {
				return request{}, err
			}
		}
	}
	return req, nil
}

func readName(r *bufio.Reader, n uint16) (string, error) {
	if n > maxNameLen {
		return "", fmt.Errorf("name of %d bytes exceeds the %d-byte cap", n, maxNameLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return "", truncated(err)
	}
	return string(b), nil
}

// truncated turns an end of stream inside a frame into ErrUnexpectedEOF, so
// only a stream that ends between frames reads as a clean io.EOF.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readPayload reads an n-byte payload into dst, the raw memory it targets.
// A length other than len(dst) is the sender's mistake, not a broken
// stream: the payload is skipped and mismatch reports it. err reports a
// stream that ended first.
func readPayload(r *bufio.Reader, dst []byte, n int64) (mismatch bool, err error) {
	if n != int64(len(dst)) {
		if n < 0 {
			return true, fmt.Errorf("negative payload length %d", n)
		}
		for n > 0 && err == nil {
			var k int
			k, err = r.Discard(int(min(n, 1<<30)))
			n -= int64(k)
		}
		return true, truncated(err)
	}
	_, err = io.ReadFull(r, dst)
	return false, truncated(err)
}

// writeReply encodes one reply frame; the caller flushes.
func writeReply(w *bufio.Writer, status byte, payload []byte) error {
	var hdr [replyHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], replyMagic)
	hdr[4] = status
	le.PutUint64(hdr[8:], uint64(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readReply decodes one reply frame. An OK reply must carry exactly
// len(dst) bytes, read straight into dst. A failure reply returns its
// status and text. err means the stream can no longer be trusted.
func readReply(r *bufio.Reader, dst []byte) (status byte, text string, err error) {
	var hdr [replyHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", truncated(err)
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:]); m != replyMagic {
		return 0, "", fmt.Errorf("bad reply magic %#x", m)
	}
	status, n := hdr[4], le.Uint64(hdr[8:])
	switch {
	case status > statusLast:
		return 0, "", fmt.Errorf("unknown reply status %d", status)
	case status == statusOK:
		if n != uint64(len(dst)) {
			return 0, "", fmt.Errorf("reply carries %d bytes, expected %d", n, len(dst))
		}
		_, err := io.ReadFull(r, dst)
		return statusOK, "", truncated(err)
	case n > maxErrBytes:
		return 0, "", fmt.Errorf("error text of %d bytes exceeds the %d-byte cap", n, maxErrBytes)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, "", truncated(err)
	}
	return status, string(b), nil
}
