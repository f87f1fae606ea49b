package main

// renderLine renders resp as one reply line in fresh memory, as respond
// does for a request without a connection's reply buffer.
func renderLine(resp solveResponse) ([]byte, error) {
	return newReplyBuf().render(resp)
}
