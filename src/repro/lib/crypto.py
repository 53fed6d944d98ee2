"""The ``crypto`` library: secure hashing and signatures.

The paper lists a crypto library with "cryptographic functions for data
encryption and decryption, secure hashing, signatures, etc.".  Here they are
the standard library's: ``crypto.sha1`` and ``crypto.sha256`` (hash
constructors), ``crypto.hmac.new(key, data, "sha1")`` for a tag and
``crypto.hmac.compare_digest`` to check one in constant time.

An application imports it itself (``from repro.lib import crypto``); no
bundled one does, and no run loads it, because ``hashlib`` and ``hmac`` map
OpenSSL's libcrypto.  Node and key ids hash through :mod:`repro.sim.rng`,
which does not.
"""

import hmac
from hashlib import sha1, sha256
