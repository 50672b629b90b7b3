package memcache

// Conn is Client under the older name code outside this module still
// declares its variables with; new code says *Client.
type Conn = *Client
