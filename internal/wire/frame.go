package wire

// The reliable transport (internal/mpi, internal/fault.Loss) charges
// its protocol analytically: header and ack bytes, retransmission
// rounds and resequencing holds are added to the virtual clock and the
// simnet ledgers without materializing a byte buffer per message (the
// hot path must stay allocation-free). These constants are the frame
// geometry those charges stand for.

// FrameHeaderBytes is the modelled wire size of a reliable-transport
// frame header: a sequence number (8 bytes), the payload length (4) and
// a CRC-32 (IEEE, 4) covering the sequence number, the length and the
// payload. Every inter-node message under an active loss plan is
// charged this overhead on top of its payload.
//
// The transport model assumes the CRC detects every corruption it
// draws: a corrupted frame is discarded exactly like a dropped one and
// retransmitted after the sender's timeout, never delivered. (CRC-32
// detects every single-bit flip and every burst of up to 32 bits;
// receivers resequence duplicated or reordered frames by sequence
// number, so delivery stays exactly-once and in order.)
const FrameHeaderBytes = 16

// AckFrameBytes is the modelled wire size of a cumulative
// acknowledgement: a header-only frame whose sequence field carries the
// highest in-order sequence delivered.
const AckFrameBytes = FrameHeaderBytes
