package wfio

import (
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The wfio JSON codec. Workflows, networks and mappings are the unit of
// work of every deploy, spec revision, journal record and replay, so
// they are encoded and decoded by hand rather than through
// encoding/json's reflection. The codec is a drop-in for the library
// on these schemas, checked by a differential fuzz against it:
//
//   - The encoder appends exactly the bytes json.Marshal produces for the
//     spec structs: struct field order, omitempty, HTML-safe string
//     escaping (<, >, &, U+2028, U+2029, invalid UTF-8 as \ufffd) and the
//     library's float formatting.
//   - The decoder accepts exactly the inputs a json.Decoder with
//     DisallowUnknownFields accepts and builds the same values. Only the
//     first JSON value is read and trailing bytes are ignored; keys match
//     field names under Unicode case folding; null leaves a scalar or
//     struct unchanged and resets a slice or pointer to nil; a repeated
//     key decodes into what the earlier one left, array elements
//     included, unless an empty array or null dropped them; strings
//     replace invalid UTF-8 and lone surrogates with
//     U+FFFD; int fields reject fractions, exponents and out-of-range
//     values, and float fields reject values that overflow float64.
//
// Errors differ from the library's in wording only.

// AppendString appends s to dst as a JSON string, quoted and escaped
// exactly as json.Marshal quotes it.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// appendFloat appends f formatted as json.Marshal formats a float64:
// shortest round-trip digits, plain notation for magnitudes in
// [1e-6, 1e21), exponent notation without zero padding outside it.
// NaN and ±Inf have no JSON form.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("wfio: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendIndent appends the compact JSON src re-indented the way a
// json.Encoder with SetIndent("", "  ") writes it, trailing newline
// included. src must be this codec's own output: it is not validated.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	newline := func() {
		dst = append(dst, '\n')
		for range depth {
			dst = append(dst, "  "...)
		}
	}
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '"':
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if i+1 < len(src) && (src[i+1] == '}' || src[i+1] == ']') {
				dst = append(dst, src[i+1]) // {} and [] stay on one line
				i++
				continue
			}
			depth++
			newline()
		case '}', ']':
			depth--
			newline()
			dst = append(dst, c)
		case ',':
			dst = append(dst, c)
			newline()
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '\n')
}

// decoder parses one JSON value from data into a spec struct.
type decoder struct {
	data []byte
	off  int
	buf  []byte // scratch for unquoting strings with escapes
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.off, fmt.Sprintf(format, args...))
}

// unexpected reports the byte at the read position as not what the
// grammar or the field's type allows.
func (d *decoder) unexpected(want string) error {
	if d.off >= len(d.data) {
		return d.errorf("unexpected end of JSON input, want %s", want)
	}
	return d.errorf("unexpected %q, want %s", d.data[d.off], want)
}

// peek skips whitespace and returns the next byte, or 0 at the end of
// the input (a NUL outside a string is invalid anyway).
func (d *decoder) peek() byte {
	for d.off < len(d.data) {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return c
		}
	}
	return 0
}

// object parses an object at the read position, calling member with the
// field index of every key; an unknown key is an error.
func (d *decoder) object(fields *fieldSet, member func(field int) error) error {
	d.off++ // {
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("an object key")
		}
		body, plain, err := d.scanString()
		if err != nil {
			return err
		}
		key := body
		if !plain {
			d.buf = appendUnquoted(d.buf[:0], body)
			key = d.buf
		}
		f := fields.match(key)
		if f < 0 {
			return d.errorf("unknown field %q", key)
		}
		if d.peek() != ':' {
			return d.unexpected("':' after an object key")
		}
		d.off++
		if err := member(f); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			return nil
		default:
			return d.unexpected("',' or '}' in an object")
		}
	}
}

// array parses an array at the read position, or a null, into *s with
// encoding/json's slice semantics: element i decodes into the existing
// (*s)[i] — including one a later, shorter array hid beyond the length
// — and fresh elements start zero; the slice ends with the array's
// length; an empty array makes it a new empty slice and null makes it
// nil, both dropping what it held.
func array[T any](d *decoder, s *[]T, elem func(*T) error) error {
	switch d.peek() {
	case '[':
	case 'n':
		*s = nil
		return d.null()
	default:
		return d.unexpected("an array")
	}
	d.off++
	if d.peek() == ']' {
		d.off++
		*s = []T{}
		return nil
	}
	for i := 0; ; i++ {
		switch {
		case i < len(*s):
		case i < cap(*s):
			*s = (*s)[:i+1]
		default:
			var zero T
			*s = append(*s, zero)
		}
		if err := elem(&(*s)[i]); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			d.off++
			*s = (*s)[:i+1]
			return nil
		default:
			return d.unexpected("',' or ']' in an array")
		}
	}
}

// structure parses an object into the struct member fills, or a null,
// which leaves it unchanged. At the top level, whatever follows the
// value is ignored.
func (d *decoder) structure(fields *fieldSet, member func(field int) error) error {
	switch d.peek() {
	case '{':
		return d.object(fields, member)
	case 'n':
		return d.null()
	}
	return d.unexpected("an object")
}

// null consumes the literal null at the read position.
func (d *decoder) null() error {
	if len(d.data)-d.off < 4 || string(d.data[d.off:d.off+4]) != "null" {
		return d.unexpected("null")
	}
	d.off += 4
	return nil
}

// str decodes a string, or a null that leaves *dst unchanged. A value
// equal to one of known is stored as that string, without allocating.
func (d *decoder) str(dst *string, known ...string) error {
	switch d.peek() {
	case '"':
		body, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if plain {
			for _, k := range known {
				if string(body) == k {
					*dst = k
					return nil
				}
			}
			*dst = string(body)
		} else {
			d.buf = appendUnquoted(d.buf[:0], body)
			*dst = string(d.buf)
		}
		return nil
	case 'n':
		return d.null()
	}
	return d.unexpected("a string")
}

// float decodes a number into a float64, or a null that leaves *dst
// unchanged. A value that overflows float64 is rejected.
func (d *decoder) float(dst *float64) error {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		if n, neg, ok := smallInt(lit, 15); ok {
			// Below 2^53 the conversion is exact, so it is the value
			// ParseFloat would round to; negating keeps -0.
			if *dst = float64(n); neg {
				*dst = -*dst
			}
			return nil
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return d.errorf("cannot decode number %s into a float64", lit)
		}
		*dst = f
		return nil
	case c == 'n':
		return d.null()
	}
	return d.unexpected("a number")
}

// int decodes an integral number into an int, or a null that leaves
// *dst unchanged. Fractions, exponents and out-of-range values are
// rejected.
func (d *decoder) int(dst *int) error {
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		if n, neg, ok := smallInt(lit, 9); ok { // fits any int
			if *dst = int(n); neg {
				*dst = -*dst
			}
			return nil
		}
		n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
		if err != nil {
			return d.errorf("cannot decode number %s into an int", lit)
		}
		*dst = int(n)
		return nil
	case c == 'n':
		return d.null()
	}
	return d.unexpected("a number")
}

// smallInt parses a number literal that is a plain integer of at most
// maxDigits digits; ok is false for anything else.
func smallInt(lit []byte, maxDigits int) (n uint64, neg, ok bool) {
	if lit[0] == '-' {
		neg, lit = true, lit[1:]
	}
	if len(lit) > maxDigits {
		return 0, false, false
	}
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, neg, true
}

// number scans a JSON number literal at the read position.
func (d *decoder) number() ([]byte, error) {
	data := d.data
	start, i := d.off, d.off
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i)
	default:
		d.off = i
		return nil, d.unexpected("a digit")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if j := skipDigits(data, i); j > i {
			i = j
		} else {
			d.off = i
			return nil, d.unexpected("a digit after the decimal point")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := skipDigits(data, i); j > i {
			i = j
		} else {
			d.off = i
			return nil, d.unexpected("a digit in the exponent")
		}
	}
	d.off = i
	return data[start:i], nil
}

// skipDigits returns the index of the first non-digit at or after i.
func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// scanString scans the string literal at the read position and returns
// its body between the quotes. plain reports that the body is its own
// value: no escapes and valid UTF-8.
func (d *decoder) scanString() (body []byte, plain bool, err error) {
	data := d.data
	ascii := true
	plain = true
	for i := d.off + 1; i < len(data); {
		if plainASCII[data[i]] {
			i++
			continue
		}
		switch c := data[i]; {
		case c == '"':
			body = data[d.off+1 : i]
			d.off = i + 1
			if !ascii && plain {
				plain = utf8.Valid(body)
			}
			return body, plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(data) {
				break
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for k := 1; k <= 4; k++ {
					if i+k >= len(data) {
						d.off = len(data)
						return nil, false, d.unexpected("a hex digit in a \\u escape")
					}
					if hexValue(data[i+k]) < 0 {
						d.off = i + k
						return nil, false, d.unexpected("a hex digit in a \\u escape")
					}
				}
				i += 5
			default:
				d.off = i
				return nil, false, d.unexpected("an escape character")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.unexpected("a string character")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	d.off = len(data)
	return nil, false, d.unexpected("the end of a string")
}

// plainASCII marks the bytes a string body holds verbatim: printable
// ASCII other than the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func hexValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// appendUnquoted appends the value of a scanned string body: escapes
// resolved, a \u surrogate pair combined, and a lone surrogate or a
// byte that is not valid UTF-8 replaced by U+FFFD.
func appendUnquoted(dst, s []byte) []byte {
	u4 := func(s []byte) rune { // s is a validated \uXXXX
		return hexValue(s[2])<<12 | hexValue(s[3])<<8 | hexValue(s[4])<<4 | hexValue(s[5])
	}
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'u':
				rr := u4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if len(s)-r >= 6 && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, u4(s[r:])); dec != unicode.ReplacementChar {
							dst = utf8.AppendRune(dst, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				dst = utf8.AppendRune(dst, rr)
				continue
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default: // " \ /
				c = e
			}
			dst = append(dst, c)
			r += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			if rr == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, unicode.ReplacementChar)
			} else {
				dst = append(dst, s[r:r+size]...)
			}
			r += size
		}
	}
	return dst
}

// fieldSet is the JSON field names of one struct.
type fieldSet struct {
	names  []string
	folded []string
}

func newFieldSet(names ...string) *fieldSet {
	fs := &fieldSet{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(appendFolded(nil, []byte(n))))
	}
	return fs
}

// match returns the index of the field key names, or -1. Like
// encoding/json it tries the exact name first, then equality under
// simple Unicode case folding ("NODES", "Kind", "Kind").
func (fs *fieldSet) match(key []byte) int {
	for i, n := range fs.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	folded := appendFolded(arr[:0], key)
	for i, n := range fs.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// appendFolded appends name with every letter mapped to the smallest
// rune of its simple case-folding orbit — encoding/json's key folding.
func appendFolded(dst, name []byte) []byte {
	for i := 0; i < len(name); {
		if c := name[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(name[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}
