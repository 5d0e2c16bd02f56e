package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/hmm"
	"repro/internal/serve"
)

// matchBodyWant is the /v1/match body the server must send for an
// offline match result: json.Marshal(serve.ResultJSON(res)) plus the
// newline its JSON encoder ends every body with.
func matchBodyWant(res *hmm.Result) ([]byte, error) {
	b, err := json.Marshal(serve.ResultJSON(res))
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// finishBodyWant is the /v1/sessions/{id}/finish body the server must
// send for a flushed stream over the same points.
func finishBodyWant(sm *hmm.StreamMatcher) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(streamResponse(sm)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkBody is the byte-parity check: a served body must equal the
// expected bytes exactly.
func checkBody(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("body differs at byte %d of %d (want %d bytes)", i, len(got), len(want))
}
