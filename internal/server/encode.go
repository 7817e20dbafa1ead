package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"mvdb/internal/core"
)

// Responses are encoded whole into a pooled buffer before anything is sent,
// so a response that cannot be encoded still gets a proper error status, and
// the body goes out in one write with its Content-Length set. Buffers that
// grew past maxPooledBuffer (a huge answer set) are left to the collector
// rather than kept alive by the pool.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuffer = 1 << 20

// writeJSON encodes v as compact JSON and answers 200 with it, or 500
// "encode" when v cannot be encoded (a NaN or infinite number, say).
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		s.encodeFailed(w, err)
		return
	}
	s.writeBody(w, buf.Bytes())
}

// writeAnswers answers a /query with its answers and the evaluation time,
// through appendAnswers.
func (s *Server) writeAnswers(w http.ResponseWriter, rows []core.Answer, millis float64) {
	buf := bufPool.Get().(*bytes.Buffer)
	defer putBuffer(buf)
	b, err := appendAnswers(buf.AvailableBuffer(), rows, millis)
	if err != nil {
		s.encodeFailed(w, err)
		return
	}
	buf.Write(b) // keeps b's storage for the pool when it grew
	s.writeBody(w, buf.Bytes())
}

func putBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBuffer {
		buf.Reset()
		bufPool.Put(buf)
	}
}

func (s *Server) writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		s.logf("server: writing response: %v", err)
	}
}

func (s *Server) encodeFailed(w http.ResponseWriter, err error) {
	s.logf("server: writing response: %v", err)
	s.httpError(w, http.StatusInternalServerError, "encode", "encoding response: %v", err)
}

var errNonFinite = errors.New("json: unsupported value: a non-finite number")

// appendAnswers appends the /query body to b as compact JSON, one line:
//
//	{"answers":[{"head":[104,"a"],"prob":0.5},...],"millis":0.12}
//
// It is what encoding/json writes for the same shape, up to the spelling of
// the numbers: a head value is an int64 or a string, escaped exactly as
// encoding/json escapes it, and a probability is the shortest decimal that
// parses back to the same float64. A NaN or infinite probability fails, as
// it does in encoding/json.
func appendAnswers(b []byte, rows []core.Answer, millis float64) ([]byte, error) {
	b = append(b, `{"answers":[`...)
	for i, a := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"head":[`...)
		for j, v := range a.Head {
			if j > 0 {
				b = append(b, ',')
			}
			if v.IsStr {
				b = appendString(b, v.Str)
			} else {
				b = strconv.AppendInt(b, v.Int, 10)
			}
		}
		b = append(b, `],"prob":`...)
		var err error
		if b, err = appendFloat(b, a.Prob); err != nil {
			return nil, err
		}
		b = append(b, '}')
	}
	b = append(b, `],"millis":`...)
	b, err := appendFloat(b, millis)
	if err != nil {
		return nil, err
	}
	return append(b, "}\n"...), nil
}

func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, errNonFinite
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64), nil
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string escaped as encoding/json escapes
// it (with its default HTML escaping): `"` and `\` by a backslash; \b, \f,
// \n, \r and \t by name; other control bytes and <, > and & as \u00XX;
// U+2028 and U+2029 as \u2028 and \u2029; and each byte of invalid UTF-8
// as \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
