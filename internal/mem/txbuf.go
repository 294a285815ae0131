package mem

// TxBuf is one transmit buffer a device has lent: the TX counterpart of
// View. B aliases the memory the frame will leave from — an untrusted
// UMem frame for an XSK — so the borrower only writes through it: it
// builds the frame there, cuts B to the frame's length, and hands the
// TxBuf back to be published. Off is the lender's handle (the UMem
// offset). Both fields live in the borrower's trusted memory, so what is
// published is (Off, len(B)) whatever the host does to the bytes.
type TxBuf struct {
	B   []byte
	Off uint64
}
