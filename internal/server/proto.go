// Package server puts an ipa database behind a TCP front end with a
// compact RESP-compatible wire protocol, turning the repository from an
// embeddable library into a deployable system: the IPA paper's claim is
// invariant preservation for *replicated database applications* serving
// real clients, and this is the serving path.
//
// The protocol is the Redis serialization protocol's core subset, so
// `redis-cli`-style tools and standard load generators speak it for free:
//
//   - requests arrive either as multi-bulk arrays
//     (`*2\r\n$4\r\nCALL\r\n$4\r\nping\r\n`) or as inline commands —
//     one space-separated line (`PING\r\n`) — on the same connection,
//     interchangeably;
//   - replies use simple strings (`+OK`), errors (`-ERR ...`), integers
//     (`:1`), bulk strings (`$5\r\nhello`), and arrays (`*N`);
//   - clients may pipeline: the server executes commands in arrival
//     order and batches replies, flushing when the input drains.
//
// Commands (case-insensitive):
//
//	PING [msg]              liveness probe; +PONG or echoes msg
//	SITE [id]               get or pin the session's replica site
//	MOUNT <spec-src>        parse + analyze + mount a specification
//	CALL <app> <op> <args>  execute one operation at the session's site
//	CHECK [app]             invariant violations across all replicas
//	DIGEST <app>            per-replica state digests (convergence probe)
//	SETTLE                  block until replication has quiesced
//	STABILIZE               run one stability/compaction pass
//	APPS / OPS <app>        list mounted apps / an app's operations
//	INFO                    server counters
//	QUIT                    close the connection
//
// See DESIGN.md ("The serving layer") for the grammar, session and
// shutdown semantics.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Protocol hard limits: a malformed or hostile frame must fail parsing
// before it can make the server allocate absurd memory.
const (
	// maxArgs caps the elements of one multi-bulk command.
	maxArgs = 1 << 20
	// maxBulk caps one bulk string (spec sources arrive as one argument,
	// so this is generous).
	maxBulk = 8 << 20
	// maxInline caps one inline command line.
	maxInline = 64 << 10
)

// ErrProtocol tags malformed frames: the connection is unrecoverable
// (framing is lost) and should be closed after reporting the error.
var ErrProtocol = errors.New("protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
}

// ParseCommand reads one client command — multi-bulk or inline — from r.
// It returns (nil, nil) for an empty inline line (a bare CRLF keep-alive,
// as redis-cli sends); callers skip those. Errors are either io errors
// (connection gone, or io.ErrUnexpectedEOF for a truncated frame) or wrap
// ErrProtocol for malformed input. It never panics on any input.
//
// A multi-bulk command costs two allocations: its payloads are read into
// one buffer (on the stack while they fit), which becomes one string
// that every argument is a slice of, and the argument slice.
func ParseCommand(r *bufio.Reader) ([]string, error) {
	first, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if first != '*' {
		if err := r.UnreadByte(); err != nil {
			return nil, err
		}
		return parseInline(r)
	}
	n, err := readInt(r, "array header")
	if err != nil {
		return nil, err
	}
	if n < 0 || n > maxArgs {
		return nil, protoErrf("bad array length %d", n)
	}
	var bufStack [256]byte
	var endStack [16]int
	buf, ends := bufStack[:0], endStack[:0]
	for i := int64(0); i < n; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		if b != '$' {
			return nil, protoErrf("expected bulk string, got %q", b)
		}
		l, err := readInt(r, "bulk length")
		if err != nil {
			return nil, err
		}
		if l < 0 || l > maxBulk {
			return nil, protoErrf("bad bulk length %d", l)
		}
		if buf, err = appendN(buf, r, int(l)+2); err != nil {
			return nil, unexpectedEOF(err)
		}
		if buf[len(buf)-2] != '\r' || buf[len(buf)-1] != '\n' {
			return nil, protoErrf("bulk string missing CRLF terminator")
		}
		buf = buf[:len(buf)-2]
		ends = append(ends, len(buf))
	}
	payload := string(buf)
	args := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		args[i] = payload[start:end]
		start = end
	}
	return args, nil
}

// appendN appends the next n bytes of r to buf. It reads through Peek
// and Discard and never hands buf to an io.Reader, so a caller's stack
// buffer stays on the stack.
func appendN(buf []byte, r *bufio.Reader, n int) ([]byte, error) {
	for n > 0 {
		p, err := r.Peek(min(n, r.Size()))
		buf = append(buf, p...)
		r.Discard(len(p))
		n -= len(p)
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// parseInline reads one space-separated command line. No quoting: the
// commands that carry free-form payloads (MOUNT) need the multi-bulk
// form; inline exists so humans and redis-cli-style tools can poke the
// server.
func parseInline(r *bufio.Reader) ([]string, error) {
	line, err := readLine(r, maxInline, "inline command")
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil, nil // bare CRLF keep-alive
	}
	return fields, nil
}

// readLine reads up to CRLF (tolerating bare LF), enforcing a length cap.
func readLine(r *bufio.Reader, limit int, what string) (string, error) {
	var b strings.Builder
	for {
		chunk, err := r.ReadSlice('\n')
		b.Write(chunk)
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if b.Len() > limit {
				return "", protoErrf("%s exceeds %d bytes", what, limit)
			}
			continue
		}
		return "", unexpectedEOFIf(err, b.Len() > 0)
	}
	if b.Len() > limit {
		return "", protoErrf("%s exceeds %d bytes", what, limit)
	}
	line := strings.TrimSuffix(b.String(), "\n")
	return strings.TrimSuffix(line, "\r"), nil
}

// readInt reads a decimal integer terminated by CRLF (the `*N` / `$N`
// headers, with the marker byte already consumed): readLine's rules and
// 32-byte cap, read in place from r's buffer.
func readInt(r *bufio.Reader, what string) (int64, error) {
	const limit = 32
	var lineStack [limit]byte
	line, size := lineStack[:0], 0
	for {
		chunk, err := r.ReadSlice('\n')
		if size += len(chunk); size <= limit {
			line = append(line, chunk...)
		}
		if err == nil {
			break
		}
		if err == bufio.ErrBufferFull {
			if size > limit {
				return 0, protoErrf("%s exceeds %d bytes", what, limit)
			}
			continue
		}
		return 0, unexpectedEOFIf(err, size > 0)
	}
	if size > limit {
		return 0, protoErrf("%s exceeds %d bytes", what, limit)
	}
	line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte{'\n'}), []byte{'\r'})
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("bad %s %q", what, string(line))
	}
	return n, nil
}

// unexpectedEOF maps a mid-frame EOF to io.ErrUnexpectedEOF so callers
// can tell a clean connection close (EOF at a command boundary) from a
// truncated frame.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

func unexpectedEOFIf(err error, started bool) error {
	if started {
		return unexpectedEOF(err)
	}
	return err
}

// --- Encoding -----------------------------------------------------------

// AppendCommand appends one command in multi-bulk form — the canonical
// client encoding (what ParseCommand round-trips exactly).
func AppendCommand(buf []byte, args ...string) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(len(args)), 10)
	buf = append(buf, '\r', '\n')
	for _, a := range args {
		buf = appendBulk(buf, a)
	}
	return buf
}

func appendBulk(buf []byte, s string) []byte {
	buf = append(buf, '$')
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, '\r', '\n')
	buf = append(buf, s...)
	return append(buf, '\r', '\n')
}

// sanitizeLine strips CR/LF from single-line reply payloads (simple
// strings and errors must not contain line breaks — they would corrupt
// the framing).
func sanitizeLine(s string) string {
	if !strings.ContainsAny(s, "\r\n") {
		return s
	}
	return strings.NewReplacer("\r", " ", "\n", " ").Replace(s)
}

func appendSimple(buf []byte, s string) []byte {
	buf = append(buf, '+')
	buf = append(buf, sanitizeLine(s)...)
	return append(buf, '\r', '\n')
}

func appendError(buf []byte, s string) []byte {
	buf = append(buf, '-')
	buf = append(buf, sanitizeLine(s)...)
	return append(buf, '\r', '\n')
}

func appendInt(buf []byte, n int64) []byte {
	buf = append(buf, ':')
	buf = strconv.AppendInt(buf, n, 10)
	return append(buf, '\r', '\n')
}

func appendArrayHeader(buf []byte, n int) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(n), 10)
	return append(buf, '\r', '\n')
}

func appendBulkArray(buf []byte, elems []string) []byte {
	buf = appendArrayHeader(buf, len(elems))
	for _, e := range elems {
		buf = appendBulk(buf, e)
	}
	return buf
}

// --- Replies (client side) ---------------------------------------------

// Reply is one parsed server reply.
type Reply struct {
	// Kind is the RESP type marker: '+' simple, '-' error, ':' integer,
	// '$' bulk, '*' array.
	Kind byte
	// Str holds the payload of simple strings, errors, and bulk strings.
	Str string
	// Int holds the payload of integer replies.
	Int int64
	// Elems holds the elements of array replies.
	Elems []Reply
	// Null marks a null bulk ($-1) or null array (*-1).
	Null bool
}

// Err returns the reply as an error when it is an error reply.
func (rp Reply) Err() error {
	if rp.Kind == '-' {
		return errors.New(rp.Str)
	}
	return nil
}

// Strings flattens an array reply into its bulk/simple payloads.
func (rp Reply) Strings() []string {
	out := make([]string, 0, len(rp.Elems))
	for _, e := range rp.Elems {
		out = append(out, e.Str)
	}
	return out
}

// ParseReply reads one reply from r. Like ParseCommand it never panics;
// malformed replies wrap ErrProtocol.
func ParseReply(r *bufio.Reader) (Reply, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return Reply{}, err
	}
	switch kind {
	case '+', '-':
		line, err := readLine(r, maxInline, "reply line")
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: kind, Str: line}, nil
	case ':':
		n, err := readInt(r, "integer reply")
		if err != nil {
			return Reply{}, err
		}
		return Reply{Kind: kind, Int: n}, nil
	case '$':
		l, err := readInt(r, "bulk length")
		if err != nil {
			return Reply{}, err
		}
		if l == -1 {
			return Reply{Kind: kind, Null: true}, nil
		}
		if l < 0 || l > maxBulk {
			return Reply{}, protoErrf("bad bulk length %d", l)
		}
		buf := make([]byte, l+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return Reply{}, unexpectedEOF(err)
		}
		if buf[l] != '\r' || buf[l+1] != '\n' {
			return Reply{}, protoErrf("bulk reply missing CRLF terminator")
		}
		return Reply{Kind: kind, Str: string(buf[:l])}, nil
	case '*':
		n, err := readInt(r, "array header")
		if err != nil {
			return Reply{}, err
		}
		if n == -1 {
			return Reply{Kind: kind, Null: true}, nil
		}
		if n < 0 || n > maxArgs {
			return Reply{}, protoErrf("bad array length %d", n)
		}
		elems := make([]Reply, 0, min(n, 64))
		for i := int64(0); i < n; i++ {
			e, err := ParseReply(r)
			if err != nil {
				return Reply{}, unexpectedEOF(err)
			}
			elems = append(elems, e)
		}
		return Reply{Kind: kind, Elems: elems}, nil
	default:
		return Reply{}, protoErrf("bad reply type %q", kind)
	}
}
