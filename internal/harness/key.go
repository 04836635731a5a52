package harness

import (
	"fmt"
	"hash/crc64"
	"math"
	"reflect"
	"strconv"
)

// keyVersion leads the bytes of every persistent key, ConfigDigest and the
// -trace-cache file names: a change to appendKey's encoding is one bump.
const keyVersion = 2

var cellCRCTable = crc64.MakeTable(crc64.ECMA)

// keyDigest is the CRC-64 of keyVersion and v's appendKey encoding.
func keyDigest(v any) uint64 {
	return crc64.Checksum(appendKey([]byte{keyVersion}, reflect.ValueOf(v)), cellCRCTable)
}

// appendKey appends struct v's non-zero fields as name=value; — integers in
// decimal, floats as their IEEE-754 bits, strings quoted, structs recursively
// in braces. A zero field writes nothing, so a new zero-default field moves
// no key. Any other kind panics: whoever adds one decides if it keys results.
func appendKey(b []byte, v reflect.Value) []byte {
	for i := range v.NumField() {
		f := v.Field(i)
		if f.IsZero() {
			continue
		}
		b = append(append(b, v.Type().Field(i).Name...), '=')
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = strconv.AppendInt(b, f.Int(), 10)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			b = strconv.AppendUint(b, f.Uint(), 10)
		case reflect.Float32, reflect.Float64:
			b = strconv.AppendUint(append(b, "0x"...), math.Float64bits(f.Float()), 16)
		case reflect.String:
			b = strconv.AppendQuote(b, f.String())
		case reflect.Struct:
			b = append(appendKey(append(b, '{'), f), '}')
		default:
			panic(fmt.Sprintf("harness: key field %s.%s is a %s", v.Type(), v.Type().Field(i).Name, f.Kind()))
		}
		b = append(b, ';')
	}
	return b
}
