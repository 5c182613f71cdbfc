package device

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The subprocess wire: binary frames, little-endian, through the mailbox at
// the arena's head; only the hello crosses the worker's pipe. Mapped data
// lives in the arena (arena.go), and Exec names spans of it by offset.
//
// A request is a reqHeaderLen-byte header — magic u32, op u8, nargs u8,
// nameLen u16, n u64 (Init: payload bytes), numTeams i64, threadLimit
// i64 — then the kernel name, nargs records of (off u64, count i64,
// nameLen u16, typeLen u16, binding name, element type name; count -1 is
// one boxed value) and, for Init, n bytes of ICV-set JSON. A reply is
// magic u32, status u8, three zero bytes, n u64, then n bytes: the hello
// magic or the error text. A frame fills its mailbox slot exactly.
const (
	reqMagic       = uint32(0x71504d47) // "GMPq"
	replyMagic     = uint32(0x72504d47) // "GMPr"
	reqHeaderLen   = 32
	replyHeaderLen = 16
	argHeaderLen   = 20

	// Caps on what a frame sizes itself, checked before allocating.
	maxNameLen   = 512
	maxInitBytes = 64 << 10
	maxErrBytes  = 64 << 10 // any reply's text

	// The largest frames, which size the mailbox's areas: an Exec with 255
	// arguments, every name at the cap (Init is smaller); the longest reply.
	maxRequestLen = reqHeaderLen + maxNameLen + math.MaxUint8*(argHeaderLen+2*maxNameLen)
	maxReplyLen   = replyHeaderLen + maxErrBytes
)

// Ops: for each the host posts one frame and waits for one reply.
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

// parseRequest decodes the request frame that fills b; Init's payload is
// the rest of b. On an error the frame is not to be trusted, and neither is
// what was decoded of it.
func parseRequest(b []byte) (request, []byte, error) {
	c := cursor{b: b}
	hdr := c.take(reqHeaderLen)
	if hdr == nil {
		return request{}, nil, c.err
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:]); m != reqMagic {
		return request{}, nil, fmt.Errorf("bad request magic %#x", m)
	}
	req := request{
		op:  hdr[4],
		n:   int64(le.Uint64(hdr[8:])),
		cfg: Launch{NumTeams: int(int64(le.Uint64(hdr[16:]))), ThreadLimit: int(int64(le.Uint64(hdr[24:])))},
	}
	switch {
	case req.op != opInit && req.op != opExec:
		return request{}, nil, fmt.Errorf("unknown op %d", req.op)
	case req.op == opInit && (req.n < 0 || req.n > maxInitBytes):
		return request{}, nil, fmt.Errorf("init payload of %d bytes exceeds the %d-byte cap", req.n, maxInitBytes)
	}
	req.name = c.name(le.Uint16(hdr[6:]))
	req.args = make([]wireArg, hdr[5])
	for i := range req.args {
		rec := c.take(argHeaderLen)
		if rec == nil {
			break
		}
		a := &req.args[i]
		a.off, a.count = le.Uint64(rec[0:]), int64(le.Uint64(rec[8:]))
		a.name = c.name(le.Uint16(rec[16:]))
		a.typ = c.name(le.Uint16(rec[18:]))
	}
	var payload []byte
	if req.op == opInit {
		payload = c.take(int(req.n))
	}
	return req, payload, c.end()
}

// appendReply encodes one reply frame.
func appendReply(dst []byte, status byte, text string) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, replyMagic)
	dst = le.AppendUint64(append(dst, status, 0, 0, 0), uint64(len(text)))
	return append(dst, text...)
}

// parseReply decodes the reply frame that fills b: its status and its
// text, the hello magic or an error. err means the frame is not to be
// trusted.
func parseReply(b []byte) (status byte, text string, err error) {
	c := cursor{b: b}
	hdr := c.take(replyHeaderLen)
	if hdr == nil {
		return 0, "", c.err
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
	text = string(c.take(int(n)))
	return status, text, c.end()
}

// cursor reads a frame out of a bounded slice; its first error sticks.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) take(n int) (p []byte) {
	if c.err == nil && n > len(c.b) {
		c.err = fmt.Errorf("frame cut short: %d bytes wanted, %d left: %w", n, len(c.b), io.ErrUnexpectedEOF)
	}
	if c.err == nil {
		c.b, p = c.b[n:], c.b[:n:n]
	}
	return p
}

func (c *cursor) name(n uint16) string {
	if c.err == nil && n > maxNameLen {
		c.err = fmt.Errorf("name of %d bytes exceeds the %d-byte cap", n, maxNameLen)
	}
	return string(c.take(int(n)))
}

// end is the cursor's error, or one for bytes left past the frame's end.
func (c *cursor) end() error {
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("%d bytes past the end of the frame", len(c.b))
	}
	return c.err
}
