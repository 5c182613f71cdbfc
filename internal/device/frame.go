package device

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// The subprocess wire: binary frames over the worker's stdin (requests)
// and stdout (replies), little-endian. Mapped data never crosses it: it
// lives in the arena (arena.go), and Exec names spans of it by offset.
//
// A request is a reqHeaderLen-byte header — magic u32, op u8, nargs u8,
// nameLen u16, n u64 (Init: payload bytes), numTeams i64, threadLimit
// i64 — then the kernel name, nargs records of (off u64, count i64,
// nameLen u16, typeLen u16, binding name, element type name; count -1 is
// one boxed value) and, for Init, n bytes of ICV-set JSON. A reply is
// magic u32, status u8, three zero bytes, n u64, then n bytes: the hello
// magic or the error text.
const (
	reqMagic       = uint32(0x71504d47) // "GMPq"
	replyMagic     = uint32(0x72504d47) // "GMPr"
	reqHeaderLen   = 32
	replyHeaderLen = 16

	// Caps on what a frame sizes itself, checked before allocating.
	maxNameLen   = 512
	maxInitBytes = 64 << 10
	maxErrBytes  = 64 << 10 // any reply's text
)

// Ops: for each the host writes one frame and reads one reply.
const (
	opInit = byte(iota + 1) // payload: ICVs → build the worker's runtime
	opExec                  // name, launch, args → run kernel over arena views
)

var opNames = [...]string{opInit: "init", opExec: "exec"}

const (
	statusOK  = byte(iota)
	statusErr // the op failed; the payload says why
)

// wireArg is one kernel argument: a binding name over an arena span.
type wireArg struct {
	name, typ string
	count     int64
	off       uint64
}

// request is a decoded request frame, less its payload.
type request struct {
	op   byte
	n    int64
	name string
	cfg  Launch
	args []wireArg
}

// appendRequest encodes req; the caller checks names and the arg count.
func appendRequest(dst []byte, req *request) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, reqMagic)
	dst = append(dst, req.op, byte(len(req.args)))
	dst = le.AppendUint16(dst, uint16(len(req.name)))
	dst = le.AppendUint64(dst, uint64(req.n))
	dst = le.AppendUint64(dst, uint64(int64(req.cfg.NumTeams)))
	dst = le.AppendUint64(dst, uint64(int64(req.cfg.ThreadLimit)))
	dst = append(dst, req.name...)
	for _, a := range req.args {
		dst = le.AppendUint64(dst, a.off)
		dst = le.AppendUint64(dst, uint64(a.count))
		dst = le.AppendUint16(dst, uint16(len(a.name)))
		dst = le.AppendUint16(dst, uint16(len(a.typ)))
		dst = append(append(dst, a.name...), a.typ...)
	}
	return dst
}

// readRequest decodes a request frame up to its payload. io.EOF is a clean
// end between frames; any other error, a stream no longer to be trusted.
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
		n:   int64(le.Uint64(hdr[8:])),
		cfg: Launch{NumTeams: int(int64(le.Uint64(hdr[16:]))), ThreadLimit: int(int64(le.Uint64(hdr[24:])))},
	}
	if req.op != opInit && req.op != opExec {
		return request{}, fmt.Errorf("unknown op %d", req.op)
	}
	var err error
	if req.name, err = readName(r, le.Uint16(hdr[6:])); err != nil {
		return request{}, err
	}
	req.args = make([]wireArg, hdr[5])
	for i := range req.args {
		var rec [20]byte
		if _, err := io.ReadFull(r, rec[:]); err != nil {
			return request{}, truncated(err)
		}
		a := &req.args[i]
		a.off, a.count = le.Uint64(rec[0:]), int64(le.Uint64(rec[8:]))
		if a.name, err = readName(r, le.Uint16(rec[16:])); err == nil {
			a.typ, err = readName(r, le.Uint16(rec[18:]))
		}
		if err != nil {
			return request{}, err
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

// truncated makes an end of stream inside a frame ErrUnexpectedEOF: only
// one that ends between frames is a clean io.EOF.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeReply writes one reply frame in one write.
func writeReply(w io.Writer, status byte, payload []byte) error {
	le := binary.LittleEndian
	b := le.AppendUint32(make([]byte, 0, replyHeaderLen+len(payload)), replyMagic)
	b = le.AppendUint64(append(b, status, 0, 0, 0), uint64(len(payload)))
	_, err := w.Write(append(b, payload...))
	return err
}

// readReply decodes one reply frame: its status and its text, the hello
// magic or an error. err means the stream can no longer be trusted.
func readReply(r *bufio.Reader) (status byte, text string, err error) {
	var hdr [replyHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", truncated(err)
	}
	le := binary.LittleEndian
	status, n := hdr[4], le.Uint64(hdr[8:])
	switch m := le.Uint32(hdr[0:]); {
	case m != replyMagic:
		return 0, "", fmt.Errorf("bad reply magic %#x", m)
	case status > statusErr:
		return 0, "", fmt.Errorf("unknown reply status %d", status)
	case n > maxErrBytes:
		return 0, "", fmt.Errorf("reply text of %d bytes exceeds the %d-byte cap", n, maxErrBytes)
	}
	b := make([]byte, n)
	_, err = io.ReadFull(r, b)
	return status, string(b), truncated(err)
}
