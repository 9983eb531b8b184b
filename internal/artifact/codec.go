package artifact

import (
	"encoding"
	"fmt"
)

// EncodeGob serializes v through its fixed binary codec (MarshalBinary),
// wrapping any error with the operation. Despite the name, no
// encoding/gob is involved: each payload type owns an exact, versioned
// format, such as the analysis bundle's FOS1. The name is kept for the
// benchmark harness (perfbench), which calls it; a benchmark change
// renames it to Encode.
func EncodeGob(v encoding.BinaryMarshaler) ([]byte, error) {
	b, err := v.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("artifact: encode: %w", err)
	}
	return b, nil
}

// DecodeGob deserializes data produced by EncodeGob into v through its
// UnmarshalBinary method, wrapping any error with the operation. Like
// EncodeGob it keeps its name for the benchmark harness until a
// benchmark change renames it to Decode.
func DecodeGob(data []byte, v encoding.BinaryUnmarshaler) error {
	if err := v.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("artifact: decode: %w", err)
	}
	return nil
}
